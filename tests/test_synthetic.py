from __future__ import annotations

from datetime import timedelta

import pytest

from trendlab.experiments import PAPER_SEGMENTS
from trendlab.market_data import WEEKLY, PriceSeries
from trendlab.synthetic import (
    bars_from_adjusted,
    indicator_fixture,
    paper_shaped_series,
    planted_sentiment,
    random_walk_series,
    regime_fixture,
    sine_series,
    trend_seasonal_daily,
    weekly_dates,
)


def _bytes(value) -> bytes:
    """Every float of a fixture at full precision: two fixtures with equal
    bytes hold bit-identical values."""
    if isinstance(value, PriceSeries):
        value = (value.interval, value.bars)
    if isinstance(value, dict):
        value = sorted(value.items())
    return repr(value).encode()


SEEDED = {
    "indicator_fixture": lambda seed: indicator_fixture(bars=40, seed=seed),
    "trend_seasonal_daily": lambda seed: trend_seasonal_daily(bars=200, seed=seed),
    "random_walk_series": lambda seed: random_walk_series(bars=80, seed=seed),
    "planted_sentiment": lambda seed: planted_sentiment(sine_series(bars=40), seed=seed),
    "regime_fixture": lambda seed: regime_fixture(bars_per_segment=20, seed=seed),
    "paper_shaped_series": lambda seed: paper_shaped_series(seed=seed),
    "bars_from_adjusted": lambda seed: PriceSeries(
        WEEKLY, *bars_from_adjusted(sine_series(bars=30).adjusted(), weekly_dates(30), seed=seed)
    ),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_fixture_repeats_its_bytes_and_moves_with_the_seed(name):
    make = SEEDED[name]
    assert _bytes(make(4)) == _bytes(make(4))
    assert _bytes(make(4)) != _bytes(make(5))


def test_sine_series_repeats_its_bytes():
    assert _bytes(sine_series()) == _bytes(sine_series())


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_paper_segments_lie_inside_the_paper_shaped_series(seed):
    series = paper_shaped_series(seed=seed)
    assert series.interval == WEEKLY
    dates = series.dates()
    assert all(later - earlier == timedelta(weeks=1) for earlier, later in zip(dates, dates[1:]))
    for start, end in PAPER_SEGMENTS:
        assert dates[0] < start and end < dates[-1]
        assert len(series.between(start, end)) == 104
