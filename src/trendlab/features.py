"""Feature frame assembly: joins price, indicator, and sentiment columns,
handles the feature CSV interchange format, and prepares normalized
windowed datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping

import numpy as np

from .errors import DataError
from .indicators import IndicatorConfig, cci, macd, rsi
from .market_data import (
    NormalizationScale,
    PriceSeries,
    WindowedDataset,
    _sliding_windows,
    compute_tdd,
    make_windows,
    normalize,
    read_csv,
    read_csv_rows,
    train_window_count,
    write_csv,
)

INDEX_FUNDAMENTALS = ("Adj. Price", "Trading Vol.", "TDD")
COMPANY_FUNDAMENTALS = ("PBR", "PER", "PSR")
TECHNICALS = ("RSI", "CCI", "MACD")
SENTIMENT_COLUMN = "Sentiment"
ANSWER_COLUMN = "Answer"

NEUTRAL_SENTIMENT = 0.5


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
    defined. With no sentiment source every row gets the neutral 0.5.
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
    rsi_vals = rsi(series, config.rsi_period)          # defined from rsi_period
    cci_vals = cci(series, config.cci_period, config.cci_constant)  # from cci_period-1
    macd_vals = macd(series, config.macd_fast, config.macd_slow)    # from macd_slow-1

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
        missing = [d for d in dates if d not in sentiment_by_date]
        if missing:
            raise DataError(f"unjoinable sentiment dates: {len(missing)} rows lack sentiment, first {missing[0]}")
        sentiment = np.array([[float(sentiment_by_date[d])] for d in dates])

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
    rows = np.column_stack((frame.fundamental, frame.technical, frame.sentiment, frame.answers))
    return write_csv(header, rows.tolist())


def parse_feature_csv(text: str) -> FeatureFrame:
    """Parse an index-style or company-style feature CSV.

    Company-style frames carry no per-row price column, so the first row is
    dropped and prices are recovered from the shifted Answer column.
    """
    index_header = INDEX_FUNDAMENTALS + TECHNICALS + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    company_header = COMPANY_FUNDAMENTALS + TECHNICALS + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    header, blocks = read_csv(text, index_header, company_header)
    fundamental_names = INDEX_FUNDAMENTALS if header == index_header else COMPANY_FUNDAMENTALS
    try:
        parts = [np.column_stack([np.fromiter(map(float, column), np.float64, len(column)) for column in columns])
                 for columns in blocks]
    except (ValueError, DataError):
        raise _feature_fault(text, header) from None
    if not all(np.isfinite(part).all() for part in parts):
        raise _feature_fault(text, header)
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


def _feature_fault(text: str, header: tuple[str, ...]) -> DataError:
    """The error of a feature CSV that `parse_feature_csv` could not read:
    its rows read again one at a time up to the first malformed row or
    non-finite value."""
    for lineno, row in read_csv_rows(text, header)[1]:
        try:
            parsed = [float(v) for v in row]
        except ValueError as exc:
            return DataError(f"line {lineno}: malformed row: {exc}")
        bad = next((name for name, v in zip(header, parsed) if not math.isfinite(v)), None)
        if bad is not None:
            return DataError(f"line {lineno}: non-finite value in column {bad!r}")
    raise AssertionError("a feature CSV that parses has no fault")


@dataclass(frozen=True)
class DatasetBundle:
    """A windowed dataset together with the scales that normalized it."""

    dataset: WindowedDataset
    price_scale: NormalizationScale
    column_scales: dict[str, NormalizationScale | None]
    frame: FeatureFrame

    @property
    def columns(self) -> dict:
        return frame_columns(self.frame)


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


def _apply_scales(block: np.ndarray, scales: list[NormalizationScale | None]) -> np.ndarray:
    out = np.empty_like(block)
    for j, scale in enumerate(scales):
        out[:, j] = 0.0 if scale is None else normalize(block[:, j], scale)
    return out


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

    fundamental = _apply_scales(frame.fundamental, fund_scales)
    technical = _apply_scales(frame.technical, tech_scales)
    labels = normalize(frame.prices, price_scale)

    dataset = make_windows(fundamental, technical, frame.sentiment, labels, window)

    column_scales = dict(zip(frame.fundamental_names + frame.technical_names, fund_scales + tech_scales))
    return DatasetBundle(dataset=dataset, price_scale=price_scale, column_scales=column_scales, frame=frame)


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
    fundamental = _apply_scales(frame.fundamental, fund_scales)
    technical = _apply_scales(frame.technical, tech_scales)
    if use_sentiment and frame.sentiment is None:
        raise DataError("checkpoint expects a sentiment stream but the frame has none")
    return (
        _sliding_windows(fundamental, window),
        _sliding_windows(technical, window),
        _sliding_windows(frame.sentiment, window) if use_sentiment else None,
    )
