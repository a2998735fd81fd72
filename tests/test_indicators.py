from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.errors import ConfigError, DataError
from trendlab.indicators import IndicatorConfig, _rsi_values, cci, ema, macd, rsi
from trendlab.market_data import PriceSeries, resample_weekly
from trendlab.synthetic import indicator_fixture, paper_shaped_series, random_walk_series, trend_seasonal_daily

from conftest import series_of
from oracles import ema_macd, loop_cci, loop_ema, loop_rsi, rsi_value, wilder_rsi, windowed_cci

# Spot values computed once with the brute-force oracles on the 60-bar
# fixture, frozen to guard against both implementations drifting together.
FROZEN_RSI = {0: 36.146660861807, 20: 19.365466225364017, 45: 56.05831072464255}
FROZEN_CCI = {0: -280.57353353027366, 20: -81.74452191053851, 40: 166.3069738713286}
FROZEN_MACD = {0: -4.699912819390676, 20: -3.715221952043862, 34: -0.2678461762048272}

# RSI-14, CCI-20 with constant 0.015, and MACD 12/26.
DEFAULTS = IndicatorConfig()


def flat_series(values, highs=None, lows=None) -> PriceSeries:
    start = date(2020, 1, 6)
    bars = []
    for k, v in enumerate(values):
        high = highs[k] if highs else v
        low = lows[k] if lows else v
        bars.append((start + timedelta(weeks=k), v, high, low, v, v, 100))
    return series_of(bars)


@pytest.fixture(scope="module")
def fixture_series() -> PriceSeries:
    return indicator_fixture()


def test_config_validation():
    with pytest.raises(ConfigError, match="macd_fast"):
        IndicatorConfig(macd_fast=26, macd_slow=26)
    with pytest.raises(ConfigError):
        IndicatorConfig(rsi_period=1)
    with pytest.raises(ConfigError):
        IndicatorConfig(cci_constant=0.0)
    assert IndicatorConfig().warmup == 25


# --- RSI ---------------------------------------------------------------------


def test_rsi_all_gains_is_100():
    series = flat_series([float(v) for v in range(1, 25)])
    assert np.all(rsi(series, DEFAULTS) == 100.0)


def test_rsi_all_losses_is_0():
    series = flat_series([float(v) for v in range(50, 20, -1)])
    assert np.all(rsi(series, DEFAULTS) == 0.0)


def test_rsi_flat_is_neutral():
    series = flat_series([10.0] * 20)
    assert np.all(rsi(series, DEFAULTS) == 50.0)


def test_rsi_matches_oracle(fixture_series):
    got = rsi(fixture_series, DEFAULTS)
    expected = wilder_rsi([b.adjusted for b in fixture_series.bars], 14)
    assert got.shape == (len(expected),)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)
    for idx, value in FROZEN_RSI.items():
        assert abs(got[idx] - value) < 1e-9


def test_rsi_too_short():
    with pytest.raises(DataError, match="too short"):
        rsi(flat_series([1.0] * 14), DEFAULTS)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    shift=st.floats(-500.0, 500.0),
)
def test_rsi_bounds_and_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    values = 1000.0 + np.cumsum(rng.normal(0.0, 2.0, size=40))
    series = flat_series(values.tolist())
    shifted = flat_series((values + shift).tolist())
    base = rsi(series, DEFAULTS)
    assert np.all(base >= 0.0) and np.all(base <= 100.0)
    np.testing.assert_allclose(rsi(shifted, DEFAULTS), base, atol=1e-7)



_AVERAGE = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.0, 10.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_AVERAGE, _AVERAGE), min_size=1, max_size=40))
def test_rsi_values_equal_the_scalar_formula_bit_for_bit(averages):
    gains, losses = (np.array(column) for column in zip(*averages))
    want = np.array([rsi_value(g, l) for g, l in averages])
    assert _rsi_values(gains, losses).view(np.uint64).tolist() == want.view(np.uint64).tolist()


# Each stretch: (kind, bars, log-step size), where a walk draws its steps.
_STRETCH = st.tuples(st.sampled_from(["walk", "flat", "up", "down"]), st.integers(1, 40), st.floats(1e-4, 0.05))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), stretches=st.lists(_STRETCH, min_size=1, max_size=8), period=st.integers(2, 20))
def test_rsi_equals_the_scalar_formula_on_walks_and_flat_rising_and_falling_stretches(seed, stretches, period):
    """`rsi` against the Wilder recursion on numpy scalars that applies the
    scalar formula per value (`oracles.loop_rsi`): the same bits, on walks
    broken by stretches with no move, no loss or no gain."""
    rng = np.random.default_rng(seed)
    steps = [0.0]
    for kind, bars, size in stretches:
        draw = {"walk": rng.normal(0.0, size, bars), "flat": np.zeros(bars),
                "up": np.full(bars, size), "down": np.full(bars, -size)}[kind]
        steps.extend(draw.tolist())
    values = (100.0 * np.exp(np.cumsum(steps))).tolist()
    if len(values) < period + 1:
        values += [values[-1]] * (period + 1 - len(values))
    series = flat_series(values)
    got, want = rsi(series, IndicatorConfig(rsi_period=period)), loop_rsi(series.adjusted(), period)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# --- CCI ---------------------------------------------------------------------


def test_cci_constant_series_is_zero():
    series = flat_series([10.0] * 30)
    assert np.all(cci(series, DEFAULTS) == 0.0)


def test_cci_unit_deviation():
    # period 2: deviation of the last typical price always equals the MAD,
    # so any strictly increasing pair reads exactly 1/constant.
    series = flat_series([10.0, 20.0, 30.0])
    got = cci(series, IndicatorConfig(cci_period=2))
    np.testing.assert_allclose(got, 1.0 / 0.015)


def test_cci_matches_oracle(fixture_series):
    got = cci(fixture_series, DEFAULTS)
    expected = windowed_cci(
        [b.high for b in fixture_series.bars],
        [b.low for b in fixture_series.bars],
        [b.close for b in fixture_series.bars],
        20,
        0.015,
    )
    assert got.shape == (len(expected),)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)
    for idx, value in FROZEN_CCI.items():
        assert abs(got[idx] - value) < 1e-9


def test_cci_too_short():
    with pytest.raises(DataError, match="too short"):
        cci(flat_series([1.0] * 19), DEFAULTS)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.floats(0.001, 1000.0))
def test_cci_scale_invariance(seed, k):
    rng = np.random.default_rng(seed)
    closes = 100.0 + np.cumsum(rng.normal(0.0, 1.0, size=30))
    closes = np.maximum(closes, 1.0)
    highs = closes + rng.uniform(0.1, 1.0, size=30)
    lows = closes - rng.uniform(0.1, 1.0, size=30)
    series = flat_series(closes.tolist(), highs.tolist(), lows.tolist())
    scaled = flat_series((k * closes).tolist(), (k * highs).tolist(), (k * lows).tolist())
    np.testing.assert_allclose(cci(scaled, DEFAULTS), cci(series, DEFAULTS), rtol=1e-7, atol=1e-7)


# --- MACD --------------------------------------------------------------------


def test_macd_constant_series_is_zero():
    series = flat_series([10.0] * 40)
    assert np.all(macd(series, DEFAULTS) == 0.0)


def test_macd_matches_oracle(fixture_series):
    got = macd(fixture_series, DEFAULTS)
    expected = ema_macd([b.adjusted for b in fixture_series.bars], 12, 26)
    assert got.shape == (len(expected),)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)
    for idx, value in FROZEN_MACD.items():
        assert abs(got[idx] - value) < 1e-9


def test_macd_too_short():
    with pytest.raises(DataError, match="too short"):
        macd(flat_series([1.0] * 25), DEFAULTS)


def test_macd_scale_equivariance(fixture_series):
    base = macd(fixture_series, DEFAULTS)
    scaled_series = flat_series([3.0 * b.adjusted for b in fixture_series.bars])
    np.testing.assert_allclose(macd(scaled_series, DEFAULTS), 3.0 * base, rtol=1e-9)


def test_ema_matches_oracle(fixture_series):
    prices = [b.adjusted for b in fixture_series.bars]
    got = ema(np.array(prices), 12)
    import oracles

    np.testing.assert_allclose(got, oracles.seeded_ema(prices, 12), atol=1e-9)


# --- bit-identity with the loop forms ---------------------------------------


def _with_flat_stretches() -> PriceSeries:
    """Flat, rising and falling stretches longer than every period, so CCI
    windows with zero deviation, and RSI averages with no losses or with
    neither gains nor losses, all occur."""
    values = [10.0] * 30 + [10.0 + k for k in range(1, 21)] + [30.0] * 25
    values += [30.0 - 0.5 * k for k in range(1, 21)] + [20.0] * 25 + [20.0, 21.0, 20.5, 21.5] * 8
    return flat_series(values)


_BIT_SERIES = {
    "paper_shaped": lambda: paper_shaped_series(seed=0),
    "weekly_resampled": lambda: resample_weekly(trend_seasonal_daily(bars=1821, seed=4)),
    "daily": lambda: trend_seasonal_daily(bars=1821, seed=4),
    "random_walk": lambda: random_walk_series(seed=5),
    "flat_stretches": _with_flat_stretches,
}


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


@pytest.mark.parametrize("name", list(_BIT_SERIES))
def test_indicators_equal_the_loop_forms_bit_for_bit(name):
    series = _BIT_SERIES[name]()
    prices = series.adjusted()
    tp = np.array([(b.high + b.low + b.close) / 3.0 for b in series.bars])
    assert _same_bits(rsi(series, DEFAULTS), loop_rsi(prices, 14))
    assert _same_bits(cci(series, DEFAULTS), loop_cci(tp, 20, 0.015))
    assert _same_bits(ema(prices, 12), loop_ema(prices, 12))
    assert _same_bits(macd(series, DEFAULTS), loop_ema(prices, 12)[14:] - loop_ema(prices, 26))


def test_flat_stretches_reach_every_special_case():
    series = _with_flat_stretches()
    assert (cci(series, DEFAULTS) == 0.0).sum() > 10
    assert {50.0, 100.0} <= set(rsi(series, DEFAULTS).tolist())


# --- causality ---------------------------------------------------------------


def test_indicators_are_causal(fixture_series):
    prefix = series_of(fixture_series.bars[:45])
    for fn in (rsi, cci, macd):
        full = fn(fixture_series, DEFAULTS)
        truncated = fn(prefix, DEFAULTS)
        np.testing.assert_array_equal(truncated, full[: truncated.size])
