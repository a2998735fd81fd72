"""Feature frame assembly: joins price, indicator, and sentiment columns,
handles the feature CSV interchange format, and prepares normalized
windowed datasets. This module owns the windows, their labels and the
train/test split rule: `make_windows` slides every training window and
`inference_windows` every prediction window, both by `_sliding_windows`,
and `train_window_count` fixes the split that `prepare_dataset` also fits
its scales by. Windows are read-only views of the normalized (n, dim) row
blocks, and the sentiment windows of the frame's own sentiment column, so
each row is held once, however many windows cover it. Nothing writes a
stream or a frame once it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping

import numpy as np

from .errors import DataError
from .indicators import IndicatorConfig, cci, macd, rsi
from .market_data import NormalizationScale, PriceSeries, compute_tdd, first_row_fault, normalize, read_csv, write_csv

INDEX_FUNDAMENTALS = ("Adj. Price", "Trading Vol.", "TDD")
COMPANY_FUNDAMENTALS = ("PBR", "PER", "PSR")
TECHNICALS = ("RSI", "CCI", "MACD")
SENTIMENT_COLUMN = "Sentiment"
ANSWER_COLUMN = "Answer"

NEUTRAL_SENTIMENT = 0.5

# Windows are split a:b between training and test, in time order.
TRAIN_TEST_RATIO = (15, 1)


@dataclass(frozen=True)
class FeatureFrame:
    """Aligned raw feature rows; one row per usable time step.

    `prices[t]` is the adjusted price at row t (the label source) and
    `answers[t]` the adjusted price of the following step (the Answer
    column). All values are raw; normalization happens in
    `prepare_dataset`.
    """

    fundamental: np.ndarray
    technical: np.ndarray
    sentiment: np.ndarray | None
    prices: np.ndarray
    answers: np.ndarray
    fundamental_names: tuple[str, ...]
    technical_names: tuple[str, ...] = TECHNICALS
    dates: tuple[date, ...] | None = None

    def __post_init__(self):
        n = self.prices.shape[0]
        if n == 0:
            raise DataError("empty feature frame")
        if self.fundamental.shape != (n, len(self.fundamental_names)):
            raise DataError("fundamental block misaligned")
        if self.technical.shape != (n, len(self.technical_names)):
            raise DataError("technical block misaligned")
        if self.sentiment is not None:
            if self.sentiment.shape[0] != n:
                raise DataError("sentiment block misaligned")
            if not ((self.sentiment >= 0.0) & (self.sentiment <= 1.0)).all():
                raise DataError("sentiment values must lie in [0, 1]")
        if self.answers.shape != (n,):
            raise DataError("answers misaligned")
        if self.dates is not None and len(self.dates) != n:
            raise DataError("dates misaligned")

    @property
    def n(self) -> int:
        return self.prices.shape[0]

    def without_sentiment(self) -> "FeatureFrame":
        return replace(self, sentiment=None)


def build_feature_frame(
    series: PriceSeries,
    config: IndicatorConfig = IndicatorConfig(),
    sentiment_by_date: Mapping[date, float] | None = None,
) -> FeatureFrame:
    """Assemble the index-style feature frame from a price series.

    Rows start at the first bar where TDD and every indicator are defined
    and stop one bar before the series end so the Answer column stays
    defined. With no sentiment source every row gets the neutral 0.5;
    otherwise each row's score is looked up by its date in one pass, and
    only a frame with a date the scores lack is scanned again, to count
    those dates for the DataError.
    """
    n = len(series)
    start = max(1, config.warmup)
    if start > n - 2:
        raise DataError(
            f"indicator warm-up exhausts data: need more than {start + 2} bars, got {n}"
        )
    adjusted = series.adjusted()
    volume = series.volume.astype(np.float64)
    tdd = compute_tdd(series)  # tdd[k] belongs to bar k+1
    # Each indicator's first value sits at bar rsi_period, cci_period - 1
    # and macd_slow - 1; the slices below shift each to bar `start`.
    rsi_vals = rsi(series, config)
    cci_vals = cci(series, config)
    macd_vals = macd(series, config)

    fundamental = np.column_stack([
        adjusted[start : n - 1],
        volume[start : n - 1],
        tdd[start - 1 : n - 2],
    ])
    technical = np.column_stack([
        rsi_vals[start - config.rsi_period : n - 1 - config.rsi_period],
        cci_vals[start - (config.cci_period - 1) : n - 1 - (config.cci_period - 1)],
        macd_vals[start - (config.macd_slow - 1) : n - 1 - (config.macd_slow - 1)],
    ])

    dates = series.dates()[start : n - 1]
    if sentiment_by_date is None:
        sentiment = np.full((len(dates), 1), NEUTRAL_SENTIMENT)
    else:
        try:
            scores = np.fromiter(map(sentiment_by_date.__getitem__, dates), np.float64, len(dates))
        except KeyError:
            missing = [d for d in dates if d not in sentiment_by_date]
            raise DataError(
                f"unjoinable sentiment dates: {len(missing)} rows lack sentiment, first {missing[0]}"
            ) from None
        sentiment = scores[:, None]

    return FeatureFrame(
        fundamental=fundamental,
        technical=technical,
        sentiment=sentiment,
        prices=adjusted[start : n - 1],
        answers=adjusted[start + 1 : n],
        fundamental_names=INDEX_FUNDAMENTALS,
        dates=dates,
    )


def feature_frame_to_csv(frame: FeatureFrame) -> str:
    """Serialize raw feature rows in the interchange column order."""
    if frame.sentiment is None:
        raise DataError("cannot write a feature CSV without a sentiment column")
    if frame.sentiment.shape[1] != 1:
        raise DataError("feature CSV expects a single sentiment column")
    header = frame.fundamental_names + frame.technical_names + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    return write_csv(header, (*frame.fundamental.T, *frame.technical.T, *frame.sentiment.T, frame.answers))


def parse_feature_csv(text: str) -> FeatureFrame:
    """Parse an index-style or company-style feature CSV.

    Company-style frames carry no per-row price column, so the first row is
    dropped and prices are recovered from the shifted Answer column. A file
    that fails is read again by `first_row_fault`, which names its first
    row with a malformed cell or, once every cell of the row converts, a
    non-finite one.
    """
    index_header = INDEX_FUNDAMENTALS + TECHNICALS + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    company_header = COMPANY_FUNDAMENTALS + TECHNICALS + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    header, blocks = read_csv(text, index_header, company_header)
    fundamental_names = INDEX_FUNDAMENTALS if header == index_header else COMPANY_FUNDAMENTALS
    try:
        parts = [np.column_stack([np.fromiter(map(float, column), np.float64, len(column)) for column in columns])
                 for columns in blocks]
    except (ValueError, DataError):
        parts = None
    if parts is None or not all(np.isfinite(part).all() for part in parts):

        def check(row: list[str]) -> None:
            finite = list(map(math.isfinite, map(float, row)))
            if not all(finite):
                raise DataError(f"non-finite value in column {header[finite.index(False)]!r}")

        raise first_row_fault(text, header, check)
    if not parts:
        raise DataError("empty feature frame")
    mat = np.concatenate(parts)

    sentiment = mat[:, 6:7]
    if sentiment.min() < 0.0 or sentiment.max() > 1.0:
        raise DataError("sentiment values must lie in [0, 1]")
    answers = mat[:, 7]
    if answers.min() <= 0.0:
        raise DataError("Answer column must hold positive prices")

    if fundamental_names is INDEX_FUNDAMENTALS:
        prices = mat[:, 0]
        if prices.min() <= 0.0:
            raise DataError("Adj. Price column must hold positive prices")
        keep = slice(0, mat.shape[0])
    else:
        # Row 0 has no known at-row price; realign on the shifted answers.
        if mat.shape[0] < 2:
            raise DataError("company-style frame needs at least 2 rows")
        prices = mat[:-1, 7]
        keep = slice(1, mat.shape[0])

    return FeatureFrame(
        fundamental=mat[keep, 0:3],
        technical=mat[keep, 3:6],
        sentiment=sentiment[keep],
        prices=prices,
        answers=answers[keep],
        fundamental_names=fundamental_names,
    )


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding windows of feature rows with next-step labels, split train/test.

    `streams` is the (fundamental, technical, sentiment-or-None) triple of
    (n_windows, window, dim) arrays that `forward_batch` reads; `labels[k]`
    is the normalized adjusted price at the step immediately after window
    k's last row, and `label_indices[k]` is that step's row index in the
    source frame. The first `split_index` windows are training; the rest
    are test. Each stream is a read-only view of its rows, as
    `make_windows` slides them, and a split is a view too: it slices every
    array and copies none.
    """

    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None]
    labels: np.ndarray
    label_indices: np.ndarray
    split_index: int

    def __post_init__(self):
        n = self.n_windows
        rest = (*self.streams[1:], self.labels, self.label_indices)
        for name, arr in zip(("technical", "sentiment", "labels", "label_indices"), rest):
            if arr is not None and arr.shape[0] != n:
                raise DataError(f"{name} misaligned with fundamental windows")
        if not 0 <= self.split_index <= n:
            raise DataError(f"split_index {self.split_index} out of range for {n} windows")
        if n > 1 and not np.all(np.diff(self.label_indices) > 0):
            raise DataError("windows not ordered by time")

    @property
    def n_windows(self) -> int:
        return self.streams[0].shape[0]

    @property
    def window(self) -> int:
        return self.streams[0].shape[1]

    def _sliced(self, lo: int, hi: int, split: int) -> "WindowedDataset":
        streams = tuple(None if s is None else s[lo:hi] for s in self.streams)
        return WindowedDataset(streams, self.labels[lo:hi], self.label_indices[lo:hi], split)

    @property
    def train(self) -> "WindowedDataset":
        return self._sliced(0, self.split_index, self.split_index)

    @property
    def test(self) -> "WindowedDataset":
        return self._sliced(self.split_index, self.n_windows, 0)


def train_window_count(count: int) -> int:
    """How many of `count` windows form the training split:
    ceil(count * a / (a+b)) for TRAIN_TEST_RATIO a:b."""
    a, b = TRAIN_TEST_RATIO
    return (count * a + (a + b) - 1) // (a + b)


def _sliding_windows(blocks: tuple, window: int) -> tuple:
    """Every length-`window` step-1 window of the rows of each (n, dim)
    float64 block of a stream triple, as a read-only (n - window + 1,
    window, dim) view of the block: each row is held once, not once per
    window that covers it. A None block stays None."""
    def windows(block: np.ndarray) -> np.ndarray:
        view = np.lib.stride_tricks.sliding_window_view(np.asarray(block, dtype=np.float64), window, axis=0)
        return view.transpose(0, 2, 1)

    return tuple(None if block is None else windows(block) for block in blocks)


def make_windows(blocks: tuple, labels: np.ndarray, window: int) -> WindowedDataset:
    """Slide a length-`window` step-1 window over the rows of the normalized
    (fundamental, technical, sentiment-or-None) triple of (n, dim) blocks.

    `labels[t]` must be the normalized adjusted price at row t; window k
    covers rows [k, k+window) and takes labels[k+window]. The first
    `train_window_count(count)` windows form the training split, so every
    test label falls strictly after every training label.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = blocks[0].shape[0]
    if labels.shape != (n,):
        raise DataError(f"labels length {labels.shape[0]} != rows length {n}")
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    count = n - window
    if count < 1:
        raise DataError(f"insufficient rows: {n} rows cannot form a window of {window} plus a label")

    # The last row only ever serves as a label.
    streams = _sliding_windows(tuple(None if block is None else block[:-1] for block in blocks), window)
    return WindowedDataset(streams, labels[window:], np.arange(window, n), train_window_count(count))


@dataclass(frozen=True)
class DatasetBundle:
    """A windowed dataset together with the scales that normalized it and
    its column names per stream, as `frame_columns` gives them."""

    dataset: WindowedDataset
    price_scale: NormalizationScale
    column_scales: dict[str, NormalizationScale | None]
    columns: dict


def frame_columns(frame: FeatureFrame) -> dict:
    """Column names per stream, as recorded in a checkpoint."""
    return {
        "fundamental": list(frame.fundamental_names),
        "technical": list(frame.technical_names),
        "sentiment": None if frame.sentiment is None else [SENTIMENT_COLUMN],
    }


def _column_scale(values: np.ndarray) -> NormalizationScale | None:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return None  # constant column maps to zero
    return NormalizationScale(lo, hi)


def _scaled_blocks(
    frame: FeatureFrame,
    fund_scales: list[NormalizationScale | None],
    tech_scales: list[NormalizationScale | None],
    with_sentiment: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The frame's stream triple of (n, dim) blocks: each fundamental and
    technical column mapped by its scale (a None scale, a constant column,
    maps to zero), and the sentiment block as it is, or None without it."""
    blocks = []
    for block, scales in ((frame.fundamental, fund_scales), (frame.technical, tech_scales)):
        out = np.empty_like(block)
        for j, scale in enumerate(scales):
            out[:, j] = 0.0 if scale is None else normalize(block[:, j], scale)
        blocks.append(out)
    return (*blocks, frame.sentiment if with_sentiment else None)


def prepare_dataset(
    frame: FeatureFrame,
    window: int,
    scale_fit: str = "train",
) -> DatasetBundle:
    """Normalize a raw frame and slide it into train/test windows.

    Every non-sentiment column is min-max mapped onto [-1, 1]; labels use
    the adjusted-price scale. With scale_fit="train" (the default) scales
    are fitted on rows up to the last training label so no test-period
    statistics leak backwards; "full", the one other value `RunConfig`
    accepts, fits on the whole frame instead.
    """
    n = frame.n
    count = n - window
    if count < 1:
        raise DataError(f"insufficient rows: {n} rows for window {window}")
    span_end = (train_window_count(count) - 1) + window if scale_fit == "train" else n - 1
    fit = slice(0, span_end + 1)

    price_scale = NormalizationScale.from_values(frame.prices[fit])
    fund_scales = [_column_scale(frame.fundamental[fit, j]) for j in range(frame.fundamental.shape[1])]
    tech_scales = [_column_scale(frame.technical[fit, j]) for j in range(frame.technical.shape[1])]

    blocks = _scaled_blocks(frame, fund_scales, tech_scales, frame.sentiment is not None)
    dataset = make_windows(blocks, normalize(frame.prices, price_scale), window)

    column_scales = dict(zip(frame.fundamental_names + frame.technical_names, fund_scales + tech_scales))
    return DatasetBundle(dataset=dataset, price_scale=price_scale, column_scales=column_scales,
                         columns=frame_columns(frame))


def inference_windows(
    frame: FeatureFrame,
    window: int,
    column_scales: Mapping[str, NormalizationScale | None],
    use_sentiment: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stream windows for prediction, normalized with previously fitted
    scales. Includes the final window, whose next step is unobserved, so a
    frame of n rows yields n - window + 1 windows.
    """
    n = frame.n
    if n < window:
        raise DataError(f"insufficient history: {n} rows for window {window}")
    try:
        fund_scales = [column_scales[name] for name in frame.fundamental_names]
        tech_scales = [column_scales[name] for name in frame.technical_names]
    except KeyError as exc:
        raise DataError(f"checkpoint lacks a scale for column {exc}") from None
    if use_sentiment and frame.sentiment is None:
        raise DataError("checkpoint expects a sentiment stream but the frame has none")
    return _sliding_windows(_scaled_blocks(frame, fund_scales, tech_scales, use_sentiment), window)
