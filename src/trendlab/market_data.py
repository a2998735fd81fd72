"""Price series ingestion, weekly resampling, normalization, and windowed datasets.

All functions here are pure: they validate their inputs, never mutate them,
and are safe to call concurrently.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from .errors import DataError

DAILY = "daily"
WEEKLY = "weekly"
INTERVALS = (DAILY, WEEKLY)

# Yahoo Finance export schema; the only accepted price CSV header.
PRICE_CSV_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")


@dataclass(frozen=True)
class PriceBar:
    """One OHLCV + adjusted-price observation at a calendar date."""

    date: date
    open: float
    high: float
    low: float
    close: float
    adjusted: float
    volume: int

    def __post_init__(self):
        if not (self.low <= self.open <= self.high):
            raise DataError(f"{self.date}: open {self.open} outside [low, high]")
        if not (self.low <= self.close <= self.high):
            raise DataError(f"{self.date}: close {self.close} outside [low, high]")
        if self.volume < 0:
            raise DataError(f"{self.date}: negative volume {self.volume}")
        if not self.adjusted > 0:
            raise DataError(f"{self.date}: adjusted price must be positive, got {self.adjusted}")
        for name in ("open", "high", "low", "close", "adjusted"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{self.date}: non-finite {name}")


@dataclass(frozen=True)
class PriceSeries:
    """Ordered, gap-free-by-construction sequence of bars for one symbol."""

    symbol: str
    interval: str
    bars: tuple[PriceBar, ...]

    def __post_init__(self):
        if self.interval not in INTERVALS:
            raise DataError(f"unknown interval {self.interval!r}")
        if not self.bars:
            raise DataError("empty series")
        object.__setattr__(self, "bars", tuple(self.bars))
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise DataError(f"dates not ascending at {cur.date} (after {prev.date})")

    def __len__(self) -> int:
        return len(self.bars)

    def adjusted(self) -> np.ndarray:
        return np.array([b.adjusted for b in self.bars], dtype=np.float64)

    def dates(self) -> tuple[date, ...]:
        return tuple(b.date for b in self.bars)

    def between(self, start: date, end: date) -> "PriceSeries":
        """Sub-series with start <= bar.date <= end."""
        picked = tuple(b for b in self.bars if start <= b.date <= end)
        if not picked:
            raise DataError(f"no bars between {start} and {end}")
        return PriceSeries(self.symbol, self.interval, picked)


def parse_price_csv(text: str, symbol: str = "series", interval: str = DAILY) -> PriceSeries:
    """Parse a `Date,Open,High,Low,Close,Adj Close,Volume` CSV into a PriceSeries.

    Dates must be ISO-8601 and strictly ascending. Any malformed row is
    reported with its line number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: missing header") from None
    cleaned = tuple(h.strip().lstrip("﻿") for h in header)
    if cleaned != PRICE_CSV_HEADER:
        raise DataError(
            f"unexpected header {cleaned!r}; expected {','.join(PRICE_CSV_HEADER)!r}"
        )

    bars: list[PriceBar] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(PRICE_CSV_HEADER):
            raise DataError(f"line {lineno}: expected {len(PRICE_CSV_HEADER)} fields, got {len(row)}")
        try:
            when = date.fromisoformat(row[0].strip())
            o, h, l, c, adj = (float(row[k]) for k in range(1, 6))
            vol = int(row[6])
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed row: {exc}") from None
        try:
            bars.append(PriceBar(when, o, h, l, c, adj, vol))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None

    if not bars:
        raise DataError("empty series")
    for prev, cur in zip(bars, bars[1:]):
        if cur.date <= prev.date:
            raise DataError(f"dates not ascending at {cur.date} (after {prev.date})")
    return PriceSeries(symbol, interval, tuple(bars))


def _monday_of(day: date) -> date:
    return day - timedelta(days=day.weekday())


def resample_weekly(series: PriceSeries) -> PriceSeries:
    """Collapse daily bars into Monday-anchored weekly bars.

    open = first open, high = max high, low = min low, close/adjusted = last
    values, volume = sum. The weekly bar carries the Monday of its week.
    """
    if series.interval != DAILY:
        raise DataError("input already weekly")
    weekly: list[PriceBar] = []
    group: list[PriceBar] = []
    for bar in series.bars:
        if group and _monday_of(bar.date) != _monday_of(group[0].date):
            weekly.append(_collapse_week(group))
            group = []
        group.append(bar)
    weekly.append(_collapse_week(group))
    return PriceSeries(series.symbol, WEEKLY, tuple(weekly))


def _collapse_week(group: list[PriceBar]) -> PriceBar:
    return PriceBar(
        date=_monday_of(group[0].date),
        open=group[0].open,
        high=max(b.high for b in group),
        low=min(b.low for b in group),
        close=group[-1].close,
        adjusted=group[-1].adjusted,
        volume=sum(b.volume for b in group),
    )


def compute_tdd(series: PriceSeries) -> np.ndarray:
    """First differences of the adjusted price.

    Output k corresponds to bar k+1 (the first bar has no delta).
    """
    if len(series) < 2:
        raise DataError("series too short for TDD (need at least 2 bars)")
    return np.diff(series.adjusted())


@dataclass(frozen=True)
class NormalizationScale:
    """Min/max of a price over its fit period, for mapping onto [-1, 1]."""

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise DataError("non-finite scale bounds")
        if not self.max > self.min:
            raise DataError(f"degenerate scale: max ({self.max}) must exceed min ({self.min})")

    @classmethod
    def from_values(cls, values: np.ndarray) -> "NormalizationScale":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise DataError("cannot fit scale on empty values")
        return cls(float(values.min()), float(values.max()))


def fit_scale(series: PriceSeries) -> NormalizationScale:
    """Min/max scale over the adjusted prices of `series`.

    Pass the training span only unless replicating whole-period fitting.
    """
    return NormalizationScale.from_values(series.adjusted())


def normalize(price, scale: NormalizationScale):
    """Affine map sending [scale.min, scale.max] onto [-1, 1]:
    (2 * price - (max + min)) / (max - min), evaluated in the equivalent
    form 2 * (price - min) / (max - min) - 1 so the endpoints land on -1
    and +1 exactly in floating point.

    Prices outside the fit range map outside [-1, 1]; no clamping, so the
    map stays strictly increasing everywhere.
    """
    price = np.asarray(price, dtype=np.float64)
    return 2.0 * (price - scale.min) / (scale.max - scale.min) - 1.0


def denormalize(value, scale: NormalizationScale):
    """Inverse of `normalize`."""
    value = np.asarray(value, dtype=np.float64)
    return scale.min + (value + 1.0) * (scale.max - scale.min) / 2.0


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding windows of feature rows with next-step labels, split train/test.

    Stream arrays have shape (n_windows, window, dim); `labels[k]` is the
    normalized adjusted price at the step immediately after window k's last
    row, and `label_indices[k]` is that step's row index in the source frame.
    The first `split_index` windows are training; the rest are test.
    """

    fundamental: np.ndarray
    technical: np.ndarray
    sentiment: np.ndarray | None
    labels: np.ndarray
    label_indices: np.ndarray
    split_index: int

    def __post_init__(self):
        n = self.fundamental.shape[0]
        for arr, name in ((self.technical, "technical"), (self.labels, "labels"), (self.label_indices, "label_indices")):
            if arr.shape[0] != n:
                raise DataError(f"{name} misaligned with fundamental windows")
        if self.sentiment is not None and self.sentiment.shape[0] != n:
            raise DataError("sentiment misaligned with fundamental windows")
        if not 0 <= self.split_index <= n:
            raise DataError(f"split_index {self.split_index} out of range for {n} windows")
        if n > 1 and not np.all(np.diff(self.label_indices) > 0):
            raise DataError("windows not ordered by time")

    @property
    def n_windows(self) -> int:
        return self.fundamental.shape[0]

    @property
    def window(self) -> int:
        return self.fundamental.shape[1]

    @property
    def streams(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        return self.fundamental, self.technical, self.sentiment

    def _sliced(self, lo: int, hi: int, split: int) -> "WindowedDataset":
        return replace(
            self,
            fundamental=self.fundamental[lo:hi],
            technical=self.technical[lo:hi],
            sentiment=None if self.sentiment is None else self.sentiment[lo:hi],
            labels=self.labels[lo:hi],
            label_indices=self.label_indices[lo:hi],
            split_index=split,
        )

    @property
    def train(self) -> "WindowedDataset":
        return self._sliced(0, self.split_index, self.split_index)

    @property
    def test(self) -> "WindowedDataset":
        return self._sliced(self.split_index, self.n_windows, 0)


def train_window_count(count: int, ratio: tuple[int, int]) -> int:
    a, b = ratio
    if a <= 0 or b <= 0:
        raise DataError(f"invalid split ratio {ratio}")
    return (count * a + (a + b) - 1) // (a + b)


def _sliding_windows(block: np.ndarray, window: int) -> np.ndarray:
    """Every length-`window` step-1 window of the rows of an (n, dim) block,
    as a C-contiguous float64 (n - window + 1, window, dim) array."""
    view = np.lib.stride_tricks.sliding_window_view(block, window, axis=0)
    return np.ascontiguousarray(view.transpose(0, 2, 1), dtype=np.float64)


def make_windows(
    fundamental: np.ndarray,
    technical: np.ndarray,
    sentiment: np.ndarray | None,
    labels: np.ndarray,
    window: int,
    ratio: tuple[int, int] = (15, 1),
) -> WindowedDataset:
    """Slide a length-`window` step-1 window over the rows of the normalized
    (n, dim) stream blocks.

    `labels[t]` must be the normalized adjusted price at row t; window k
    covers rows [k, k+window) and takes labels[k+window]. The first
    ceil(count * a / (a+b)) windows form the training split, so every test
    label falls strictly after every training label.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = fundamental.shape[0]
    if labels.shape != (n,):
        raise DataError(f"labels length {labels.shape[0]} != rows length {n}")
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    count = n - window
    if count < 1:
        raise DataError(f"insufficient rows: {n} rows cannot form a window of {window} plus a label")

    # The last row only ever serves as a label.
    return WindowedDataset(
        fundamental=_sliding_windows(fundamental[:-1], window),
        technical=_sliding_windows(technical[:-1], window),
        sentiment=None if sentiment is None else _sliding_windows(sentiment[:-1], window),
        labels=labels[window:],
        label_indices=np.arange(window, n),
        split_index=train_window_count(count, ratio),
    )
