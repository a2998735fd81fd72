"""Deterministic synthetic market fixtures for tests and experiments.

Fixtures are generated from seeds rather than checked in as data files.
Weekly series carry consecutive Monday dates; daily series carry business
days.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from .market_data import DAILY, WEEKLY, PriceSeries


def weekly_dates(n: int, start: date = date(2015, 1, 5)) -> list[date]:
    if start.weekday() != 0:
        raise ValueError("weekly series must start on a Monday")
    return [start + timedelta(weeks=k) for k in range(n)]


def business_dates(n: int, start: date = date(2015, 1, 5)) -> list[date]:
    days = (start + timedelta(days=k) for k in range(7 * (n // 5 + 1)))
    return [day for day in days if day.weekday() < 5][:n]


def bars_from_adjusted(
    adjusted: np.ndarray, dates: list[date], seed: int = 0, volume_base: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wrap an adjusted-price path into the (ordinals, ohlca, volume) columns
    of bars that satisfy the bar invariants: open = previous close, high/low
    bracket both.
    """
    adjusted = np.asarray(adjusted, dtype=np.float64)
    if adjusted.min() <= 0:
        raise ValueError("adjusted path must stay positive")
    rng = np.random.default_rng(seed)
    spreads = rng.uniform(0.05, 0.6, size=(adjusted.size, 2))
    volumes = (volume_base * (1.5 + 0.5 * np.cos(np.arange(adjusted.size) / 3.0))).astype(np.int64)
    opening = np.concatenate((adjusted[:1], adjusted[:-1]))
    high = np.maximum(opening, adjusted) + spreads[:, 0]
    low = np.minimum(opening, adjusted) - spreads[:, 1]
    ordinals = np.array([when.toordinal() for when in dates], dtype=np.int64)
    return ordinals, np.column_stack((opening, high, low, adjusted, adjusted)), volumes


def indicator_fixture(bars: int = 60, seed: int = 7) -> PriceSeries:
    """60-bar random-walk fixture used by the indicator oracles."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 1.4, size=bars)
    adjusted = 100.0 + np.cumsum(steps)
    adjusted = np.maximum(adjusted, 5.0)
    return PriceSeries(WEEKLY, *bars_from_adjusted(adjusted, weekly_dates(bars), seed=seed + 1))


def sine_series(bars: int = 59, period: float = 16.0, base: float = 100.0, amplitude: float = 10.0) -> PriceSeries:
    """Noiseless sine path; with the default pipeline settings (warm-up 25,
    window 12) 59 bars yield exactly 21 windows: 20 training plus 1 test.
    """
    t = np.arange(bars, dtype=np.float64)
    adjusted = base + amplitude * np.sin(2.0 * np.pi * t / period)
    return PriceSeries(WEEKLY, *bars_from_adjusted(adjusted, weekly_dates(bars), seed=1))


def trend_seasonal_daily(bars: int = 1280, seed: int = 11) -> PriceSeries:
    """Daily series with a clean weekly-scale trend and seasonality plus
    intra-week transient noise that has largely decayed by each week's last
    session: structure is much clearer at the weekly interval than at the
    daily one.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(bars, dtype=np.float64)
    # business_dates starts on a Monday and skips weekends, so index % 5 is
    # the weekday; transients peak mid-week and settle before Friday.
    weekday_swing = np.array([1.4, 1.8, 2.0, 1.4, 0.12])[np.arange(bars) % 5]
    noise = rng.normal(0.0, 1.6, size=bars) * weekday_swing
    adjusted = 250.0 + 0.06 * t + 12.0 * np.sin(2.0 * np.pi * t / 40.0) + noise
    adjusted = np.maximum(adjusted, 5.0)
    return PriceSeries(DAILY, *bars_from_adjusted(adjusted, business_dates(bars), seed=seed + 1))


def random_walk_series(bars: int = 340, seed: int = 23, step_sigma: float = 0.012) -> PriceSeries:
    """Geometric random walk: next-step moves are unpredictable from price
    history alone. Used by the sentiment-ablation fixtures.
    """
    rng = np.random.default_rng(seed)
    log_path = np.cumsum(rng.normal(0.0, step_sigma, size=bars))
    adjusted = 150.0 * np.exp(log_path)
    return PriceSeries(WEEKLY, *bars_from_adjusted(adjusted, weekly_dates(bars), seed=seed + 1))


def planted_sentiment(series: PriceSeries, seed: int = 13, noise: float = 0.04) -> dict[date, float]:
    """Sentiment that leads the label: the score at date t encodes the
    price move from t to t+1 plus a little noise, squashed into [0, 1].
    """
    rng = np.random.default_rng(seed)
    adjusted = series.adjusted()
    deltas = np.diff(adjusted)
    scale = float(np.std(deltas)) or 1.0
    scores = {}
    for k, when in enumerate(series.dates()):
        raw = 0.5 + 0.4 * np.tanh(deltas[k] / (1.2 * scale)) + rng.normal(0.0, noise) if k < deltas.size else 0.5
        scores[when] = float(np.clip(raw, 0.0, 1.0))
    return scores


def regime_fixture(
    bars_per_segment: int = 200, seed: int = 29
) -> tuple[PriceSeries, list[tuple[date, date]]]:
    """One weekly series holding a bear, a flat, and a bull segment of equal
    length, plus the three date ranges.
    """
    rng = np.random.default_rng(seed)
    n = bars_per_segment
    noise = rng.normal(0.0, 2.0, size=3 * n)
    t = np.arange(n, dtype=np.float64)
    bear = 260.0 - 0.6 * t
    flat = np.full(n, bear[-1])
    bull = flat[-1] + 0.6 * t
    adjusted = np.concatenate([bear, flat, bull]) + noise
    adjusted = np.maximum(adjusted, 5.0)
    dates = weekly_dates(3 * n, start=date(2000, 1, 3))
    series = PriceSeries(WEEKLY, *bars_from_adjusted(adjusted, dates, seed=seed + 1))
    segments = [
        (dates[0], dates[n - 1]),
        (dates[n], dates[2 * n - 1]),
        (dates[2 * n], dates[3 * n - 1]),
    ]
    return series, segments


def paper_shaped_series(seed: int = 3) -> PriceSeries:
    """Weekly series spanning 2000-01-03 to 2017-09-11 whose shape matches
    the preset regime segments: a two-year decline from February 2000, a
    flat stretch from September 2004, and a two-year climb from August 2013.
    """
    dates = weekly_dates(924, start=date(2000, 1, 3))  # to 2017-09-11
    drifts = (
        (date(2000, 2, 1), date(2002, 1, 31), -9.0),
        (date(2004, 9, 1), date(2006, 8, 31), 0.0),
        (date(2013, 8, 1), date(2015, 7, 31), 9.0),
    )
    rng = np.random.default_rng(seed)
    adjusted = np.empty(len(dates))
    level = 1800.0
    for k, when in enumerate(dates):
        drift = next((d for start, end, d in drifts if start <= when <= end), 0.8)
        level = max(level + drift + rng.normal(0.0, 4.0), 50.0)
        adjusted[k] = level
    return PriceSeries(WEEKLY, *bars_from_adjusted(adjusted, dates, seed=seed + 1))
