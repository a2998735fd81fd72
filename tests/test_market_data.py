from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.errors import DataError
from trendlab.market_data import (
    DAILY,
    WEEKLY,
    NormalizationScale,
    PriceBar,
    PriceSeries,
    compute_tdd,
    denormalize,
    fit_scale,
    make_windows,
    normalize,
    parse_price_csv,
    resample_weekly,
)

from conftest import EXPECTED_TDD, table_csv


def flat_bar(when: date, price: float, volume: int = 100) -> PriceBar:
    return PriceBar(when, price, price, price, price, price, volume)


def daily_series(values, volumes=None, start=date(2020, 1, 6)) -> PriceSeries:
    volumes = volumes or [100] * len(values)
    day = start
    bars = []
    for value, volume in zip(values, volumes):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        bars.append(flat_bar(day, value, volume))
        day += timedelta(days=1)
    return PriceSeries("T", DAILY, tuple(bars))


# --- parsing -----------------------------------------------------------------


def test_parse_first_table_row():
    series = parse_price_csv(table_csv(), symbol="NDX", interval=WEEKLY)
    bar = series.bars[0]
    assert bar.date == date(2010, 6, 28)
    assert bar.adjusted == 1728.339966
    assert bar.volume == 6610950000
    assert bar.open == 1761.97998 and bar.high == 1776.609985 and bar.low == 1700.040039


def test_parse_empty_body_is_error():
    with pytest.raises(DataError, match="empty series"):
        parse_price_csv("Date,Open,High,Low,Close,Adj Close,Volume\n")


def test_parse_rejects_descending_dates():
    text = (
        "Date,Open,High,Low,Close,Adj Close,Volume\n"
        "2010-07-05,1,1,1,1,1,1\n"
        "2010-06-28,1,1,1,1,1,1\n"
    )
    with pytest.raises(DataError, match="dates not ascending"):
        parse_price_csv(text)


def test_parse_rejects_wrong_header():
    with pytest.raises(DataError, match="unexpected header"):
        parse_price_csv("Date,Open,High,Low,Close,Volume\n2010-06-28,1,1,1,1,1\n")


def test_parse_reports_line_numbers():
    text = (
        "Date,Open,High,Low,Close,Adj Close,Volume\n"
        "2010-06-28,1,1,1,1,1,100\n"
        "2010-07-05,1,1,1,oops,1,100\n"
    )
    with pytest.raises(DataError, match="line 3"):
        parse_price_csv(text)


def test_parse_rejects_bar_invariant_violations():
    # close above high
    text = "Date,Open,High,Low,Close,Adj Close,Volume\n2010-06-28,5,6,4,7,5,100\n"
    with pytest.raises(DataError, match="line 2"):
        parse_price_csv(text)


def test_bar_invariants():
    with pytest.raises(DataError):
        PriceBar(date(2020, 1, 1), 5.0, 4.0, 3.0, 3.5, 3.5, 10)  # open > high
    with pytest.raises(DataError):
        PriceBar(date(2020, 1, 1), 4.0, 5.0, 3.0, 3.5, 3.5, -1)  # negative volume
    with pytest.raises(DataError):
        PriceBar(date(2020, 1, 1), 4.0, 5.0, 3.0, 3.5, 0.0, 10)  # adjusted not positive


# --- weekly resampling -------------------------------------------------------


def test_resample_takes_max_high():
    template = daily_series([2.0] * 5)  # Mon..Fri of one week
    bars = [
        PriceBar(b.date, 2.0, high, 1.0, 2.0, 2.0, 100)
        for b, high in zip(template.bars, [3.0, 7.0, 5.0, 6.0, 4.0])
    ]
    weekly = resample_weekly(PriceSeries("T", DAILY, tuple(bars)))
    assert len(weekly) == 1
    assert weekly.bars[0].high == 7


def test_resample_single_bar_week():
    wednesday = date(2020, 1, 8)
    series = PriceSeries("T", DAILY, (flat_bar(wednesday, 12.5, volume=777),))
    weekly = resample_weekly(series)
    bar = weekly.bars[0]
    assert bar.date == date(2020, 1, 6)  # anchored to the Monday
    assert bar.volume == 777
    assert (bar.open, bar.high, bar.low, bar.close, bar.adjusted) == (12.5, 12.5, 12.5, 12.5, 12.5)


def test_resample_two_weeks_brute_force():
    values = [float(v) for v in range(10, 20)]
    volumes = [v * 11 for v in range(1, 11)]
    series = daily_series(values, volumes)  # Mon..Fri twice
    weekly = resample_weekly(series)
    assert len(weekly) == 2
    # brute-force aggregation oracle
    first, second = series.bars[:5], series.bars[5:]
    for group, bar in zip((first, second), weekly.bars):
        assert bar.volume == sum(b.volume for b in group)
        assert bar.open == group[0].open
        assert bar.close == group[-1].close
        assert bar.adjusted == group[-1].adjusted
        assert bar.high == max(b.high for b in group)
        assert bar.low == min(b.low for b in group)


def test_resample_rejects_weekly_input():
    series = PriceSeries("T", WEEKLY, (flat_bar(date(2020, 1, 6), 10.0),))
    with pytest.raises(DataError, match="already weekly"):
        resample_weekly(series)


@settings(max_examples=50)
@given(
    values=st.lists(st.floats(1.0, 1000.0), min_size=2, max_size=40),
    volumes_seed=st.integers(0, 2**31),
)
def test_resample_conserves_volume(values, volumes_seed):
    rng = np.random.default_rng(volumes_seed)
    volumes = [int(v) for v in rng.integers(0, 10**9, size=len(values))]
    series = daily_series(values, volumes)
    weekly = resample_weekly(series)
    assert sum(b.volume for b in weekly.bars) == sum(volumes)
    assert max(b.high for b in weekly.bars) == max(values)
    assert min(b.low for b in weekly.bars) == min(values)


# --- TDD ---------------------------------------------------------------------


def test_tdd_matches_published_column(table_series):
    deltas = compute_tdd(table_series)
    assert len(deltas) == len(table_series) - 1
    for got, expected in zip(deltas, EXPECTED_TDD):
        assert abs(got - expected) < 5e-7  # printed precision


def test_tdd_constant_series():
    series = daily_series([10.0, 10.0, 10.0])
    assert compute_tdd(series).tolist() == [0.0, 0.0]


def test_tdd_too_short():
    with pytest.raises(DataError, match="too short"):
        compute_tdd(daily_series([10.0]))


@settings(max_examples=50)
@given(values=st.lists(st.floats(1.0, 1000.0), min_size=2, max_size=50))
def test_tdd_telescopes(values):
    series = daily_series(values)
    total = compute_tdd(series).sum()
    expected = values[-1] - values[0]
    assert abs(total - expected) <= 1e-9 * max(1.0, abs(expected))


# --- normalization -----------------------------------------------------------


def test_fit_scale_table_extrema(table_series):
    scale = fit_scale(table_series)
    assert scale.min == 1728.339966
    assert scale.max == 1902.880005


def test_fit_scale_pair_and_degenerate():
    assert fit_scale(daily_series([1.0, 2.0])) == NormalizationScale(1.0, 2.0)
    with pytest.raises(DataError, match="degenerate"):
        fit_scale(daily_series([5.0, 5.0, 5.0]))


def test_normalize_examples(table_series):
    scale = NormalizationScale(1000.0, 2000.0)
    assert normalize(1500.0, scale) == 0.0
    table_scale = fit_scale(table_series)
    assert normalize(1728.339966, table_scale) == -1.0
    assert normalize(1902.880005, table_scale) == 1.0
    # direct arithmetic oracle for the second row
    expected = (2.0 * 1814.790039 - (1902.880005 + 1728.339966)) / (1902.880005 - 1728.339966)
    got = normalize(1814.790039, table_scale)
    assert abs(got - expected) < 1e-12
    assert abs(got - -0.009395) < 1e-6  # displayed value is truncated, not rounded


def test_denormalize_examples():
    scale = NormalizationScale(1000.0, 2000.0)
    assert denormalize(1.0, scale) == 2000.0
    assert denormalize(0.0, scale) == 1500.0
    table_scale = NormalizationScale(1728.339966, 1902.880005)
    assert abs(denormalize(-0.009395, table_scale) - 1814.79) < 0.05


@settings(max_examples=200)
@given(
    price=st.floats(-1e6, 1e6),
    lo=st.floats(-1e5, 1e5),
    width=st.floats(1e-3, 1e6),
)
def test_normalize_round_trip(price, lo, width):
    scale = NormalizationScale(lo, lo + width)
    back = denormalize(normalize(price, scale), scale)
    # error scales with the largest magnitude the affine map touches
    assert abs(back - price) <= 1e-12 * max(1.0, abs(price) + abs(scale.min) + abs(scale.max))


@settings(max_examples=100)
@given(
    p1=st.floats(-1e6, 1e6),
    gap_factor=st.floats(1e-6, 10.0),
    lo=st.floats(-1e5, 1e5),
    width=st.floats(1e-3, 1e6),
)
def test_normalize_order_preserving(p1, gap_factor, lo, width):
    # separate the prices by an amount the scale can resolve
    p2 = p1 + gap_factor * width
    scale = NormalizationScale(lo, lo + width)
    assert normalize(p1, scale) < normalize(p2, scale)


# --- windowing ---------------------------------------------------------------


def rows_of(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fundamental, technical, sentiment) blocks of n rows; fundamental
    column 0 marks the row index."""
    fundamental = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
    return fundamental, np.ones((n, 1)), np.full((n, 1), 0.5)


def test_make_windows_exact_ratio():
    windows = make_windows(*rows_of(18), np.zeros(18), window=2)  # 16 windows
    assert windows.n_windows == 16
    assert windows.split_index == 15


def test_make_windows_150_10():
    windows = make_windows(*rows_of(162), np.zeros(162), window=2)  # 160 windows
    assert windows.n_windows == 160
    assert windows.split_index == 150


def test_make_windows_enumeration():
    labels = np.arange(10, dtype=np.float64) / 10.0
    ds = make_windows(*rows_of(10), labels, window=3)
    assert ds.n_windows == 7
    assert ds.label_indices.tolist() == [3, 4, 5, 6, 7, 8, 9]
    assert ds.labels.tolist() == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    # window k holds rows k..k+2 (enumeration oracle on the marker column)
    for k in range(7):
        assert ds.fundamental[k, :, 0].tolist() == [float(k), float(k + 1), float(k + 2)]


def test_make_windows_insufficient_rows():
    with pytest.raises(DataError, match="insufficient rows"):
        make_windows(*rows_of(3), np.zeros(3), window=3)


def test_make_windows_label_alignment_error():
    with pytest.raises(DataError, match="labels length"):
        make_windows(*rows_of(5), np.zeros(4), window=2)


def test_train_test_never_overlap_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(5, 120))
        window = int(rng.integers(1, min(n - 1, 14)))
        ds = make_windows(*rows_of(n), np.zeros(n), window=window)
        train, test = ds.train, ds.test
        if test.n_windows:
            assert train.label_indices.max() < test.label_indices.min()
