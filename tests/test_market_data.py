from __future__ import annotations

import ast
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab import market_data
from trendlab.synthetic import trend_seasonal_daily
from trendlab.errors import DataError
from trendlab.market_data import (
    DAILY,
    WEEKLY,
    NormalizationScale,
    PriceSeries,
    compute_tdd,
    denormalize,
    fit_scale,
    make_windows,
    normalize,
    parse_price_csv,
    read_csv,
    resample_weekly,
    write_csv,
)

from conftest import EXPECTED_TDD, TABLE_ROWS, series_of, table_csv
from oracles import loop_parse_price_csv, loop_resample_weekly

INT64_MAX = 2**63 - 1


def flat_bar(when: date, price: float, volume: int = 100) -> tuple:
    return (when, price, price, price, price, price, volume)


def daily_series(values, volumes=None, start=date(2020, 1, 6)) -> PriceSeries:
    volumes = volumes or [100] * len(values)
    day = start
    bars = []
    for value, volume in zip(values, volumes):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        bars.append(flat_bar(day, value, volume))
        day += timedelta(days=1)
    return series_of(bars, DAILY)


# --- CSV codec ---------------------------------------------------------------


def test_write_csv_writes_each_cell_kind():
    rows = [
        (1, "lstm", "", math.nan, "DataError: short, 3 bars"),
        (np.int64(2), "rnn", date(2015, 1, 5), np.float64(0.1), -0.0),
    ]
    assert write_csv(("n", "model", "date", "rmse", "error"), rows) == (
        'n,model,date,rmse,error\n1,lstm,,,"DataError: short, 3 bars"\n2,rnn,2015-01-05,0.1,-0.0\n'
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1728.339966])
def test_write_csv_writes_a_float_as_its_numpy_twin(value):
    assert write_csv(("v",), [(value,)]) == write_csv(("v",), [(np.float64(value),)])


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.booleans())
def test_write_csv_floats_read_back_exactly(value, as_numpy):
    text = write_csv(("v",), [(np.float64(value) if as_numpy else value,)])
    [(_, [field])] = list(read_csv(text, ("v",))[1])
    assert float(field).hex() == value.hex()


def test_only_market_data_imports_csv():
    """One module holds the CSV read and write rules; no other imports `csv`."""
    package = Path(market_data.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                importers.append(path.name)
    assert importers == ["market_data.py"]


# --- parsing -----------------------------------------------------------------


def test_parse_first_table_row():
    series = parse_price_csv(table_csv(), interval=WEEKLY)
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
    def one_bar(o, h, l, c, adj, vol):
        return series_of([(date(2020, 1, 1), o, h, l, c, adj, vol)], DAILY)

    with pytest.raises(DataError, match="open 5.0 outside"):
        one_bar(5.0, 4.0, 3.0, 3.5, 3.5, 10)  # open > high
    with pytest.raises(DataError, match="negative volume -1"):
        one_bar(4.0, 5.0, 3.0, 3.5, 3.5, -1)
    with pytest.raises(DataError, match="adjusted price must be positive"):
        one_bar(4.0, 5.0, 3.0, 3.5, 0.0, 10)


# Each bar invariant, broken by one field of a valid bar, and the message it
# raises; the per-bar checks run in this order.
BROKEN_BARS = [
    ({"open": 5.5}, "open 5.5 outside [low, high]"),
    ({"open": 2.5}, "open 2.5 outside [low, high]"),
    ({"close": 5.5}, "close 5.5 outside [low, high]"),
    ({"close": 2.5}, "close 2.5 outside [low, high]"),
    ({"low": 4.5}, "open 4.0 outside [low, high]"),
    ({"high": 3.4}, "open 4.0 outside [low, high]"),
    ({"volume": -1}, "negative volume -1"),
    ({"adjusted": 0.0}, "adjusted price must be positive, got 0.0"),
    ({"adjusted": -2.0}, "adjusted price must be positive, got -2.0"),
    ({"adjusted": math.nan}, "adjusted price must be positive, got nan"),
    ({"open": math.nan}, "open nan outside [low, high]"),
    ({"close": math.inf}, "close inf outside [low, high]"),
    ({"high": math.inf}, "non-finite high"),
    ({"low": -math.inf}, "non-finite low"),
    ({"adjusted": math.inf}, "non-finite adjusted"),
    ({"open": 9.0, "volume": -1, "adjusted": 0.0}, "open 9.0 outside [low, high]"),
    ({"volume": -1, "adjusted": math.inf}, "negative volume -1"),
]
FIELDS = ("date", "open", "high", "low", "close", "adjusted", "volume")


@pytest.mark.parametrize("edits, message", BROKEN_BARS)
def test_series_rejects_each_broken_bar_invariant(edits, message):
    good = dict(zip(FIELDS, (None, 4.0, 5.0, 3.0, 3.5, 3.5, 10)))
    rows = [tuple({**good, "date": date(2020, 1, k)}.values()) for k in (6, 7, 8, 9)]
    rows[2] = tuple({**good, "date": date(2020, 1, 8), **edits}.values())
    rows[3] = tuple({**good, "date": date(2020, 1, 9), "open": 99.0}.values())  # a later fault
    with pytest.raises(DataError) as caught:
        series_of(rows, DAILY)
    assert str(caught.value) == f"2020-01-08: {message}"


def test_series_accepts_the_table_rows_at_their_bounds(table_series):
    assert len(table_series) == len(TABLE_ROWS)
    assert [tuple(bar)[1:] for bar in table_series.bars] == [row[1:] for row in TABLE_ROWS]
    # open, close and low equal to the high, volume 0: every bound is inclusive
    edge = series_of([(date(2020, 1, 6), 5.0, 5.0, 5.0, 5.0, 1e-300, 0)], DAILY)
    assert edge.bars[0].volume == 0


def test_series_rejects_dates_out_of_order_after_every_bar_check():
    rows = [flat_bar(date(2020, 1, 7), 2.0), flat_bar(date(2020, 1, 7), 2.0), flat_bar(date(2020, 1, 8), -1.0)]
    with pytest.raises(DataError, match="2020-01-08: adjusted price must be positive"):
        series_of(rows, DAILY)
    with pytest.raises(DataError, match=r"^dates not ascending at 2020-01-07 \(after 2020-01-07\)$"):
        series_of(rows[:2], DAILY)


def test_series_columns_are_read_only_copies():
    ohlca = np.full((2, 5), 2.0)
    series = PriceSeries(DAILY, [737795, 737796], ohlca, [1, 2])
    ohlca[0, 0] = 99.0
    assert series.ohlca[0, 0] == 2.0
    for column in (series.ordinals, series.ohlca, series.volume):
        with pytest.raises(ValueError):
            column[0] = 0
    assert series.adjusted().flags.writeable


def test_series_rejects_misshapen_columns():
    with pytest.raises(DataError, match="price columns of shapes"):
        PriceSeries(DAILY, [737795, 737796], np.full((2, 4), 2.0), [1, 2])
    with pytest.raises(DataError, match="price columns of shapes"):
        PriceSeries(DAILY, [737795, 737796], np.full((2, 5), 2.0), [1])


def test_bars_rows_hold_python_values_that_repr_exactly(table_series):
    """The benchmark writes its fixture files from `bars` with repr."""
    bar = table_series.bars[0]
    assert [type(v) for v in bar] == [date, float, float, float, float, float, int]
    assert f"{bar.open!r},{bar.volume}" == "1761.97998,6610950000"
    assert table_series.bars[3:5] == tuple(table_series.bars)[3:5]


def test_between_picks_the_inclusive_date_range(table_series):
    picked = table_series.between(date(2010, 7, 5), date(2010, 7, 26))
    assert [d.isoformat() for d in picked.dates()] == [row[0] for row in TABLE_ROWS[1:5]]
    assert len(table_series.between(date(2010, 7, 6), date(2010, 7, 25))) == 2
    with pytest.raises(DataError, match="no bars between"):
        table_series.between(date(2010, 7, 6), date(2010, 7, 11))


# --- the columnar parse against the per-row oracle ---------------------------


def _csv(rows) -> str:
    return "\n".join(["Date,Open,High,Low,Close,Adj Close,Volume", *(",".join(map(str, r)) for r in rows)]) + "\n"


def _valid_rows(rng, n: int) -> list[list[str]]:
    ordinals = date(2001, 1, 1).toordinal() + np.cumsum(rng.integers(1, 5, n))
    low = rng.uniform(1.0, 500.0, n)
    high = low + rng.uniform(0.0, 20.0, n)
    inside = low[:, None] + rng.uniform(0.0, 1.0, (n, 3)) * (high - low)[:, None]
    volume = rng.integers(0, 10**12, n)
    return [
        [date.fromordinal(d).isoformat(), repr(o), repr(h), repr(l), repr(c), repr(a), str(v)]
        for d, o, h, l, c, a, v in zip(
            ordinals.tolist(), *inside[:, :1].T.tolist(), high.tolist(), low.tolist(), *inside[:, 1:].T.tolist(),
            volume.tolist(),
        )
    ]


# Edits that break one row: (column, value); a value of None copies the
# previous row's date.
BREAKS = {
    "nan": [(1, "nan"), (2, "nan"), (3, "NaN"), (4, "nan"), (5, "nan")],
    "inf": [(1, "inf"), (2, "inf"), (3, "-inf"), (4, "-inf"), (5, "inf")],
    "open outside": [(1, "1e9"), (1, "0.5")],
    "close outside": [(4, "1e9"), (4, "0.5")],
    "negative volume": [(6, "-1"), (6, "-123456789")],
    "adjusted": [(5, "0"), (5, "-0.0"), (5, "-3.5")],
    "malformed": [(0, "2020-13-45"), (0, ""), (1, "oops"), (3, "1,5"), (5, ""), (6, "1.5"), (6, "x")],
    "descending": [(0, None)],
}


def _broken(rows, k: int, column: int, value) -> None:
    rows[k][column] = rows[k - 1][0] if value is None else value


def _outcome(parse, text):
    try:
        return parse(text)
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    faults=st.lists(st.tuples(st.sampled_from(sorted(BREAKS)), st.integers(0, 10**6)), max_size=2),
    positions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
)
def test_columnar_parse_equals_the_per_row_oracle(seed, n, faults, positions):
    rows = _valid_rows(np.random.default_rng(seed), n)
    for (kind, pick), position in zip(faults, positions):
        k = int(position * n)
        if kind == "descending" and k == 0:
            continue
        _broken(rows, k, *BREAKS[kind][pick % len(BREAKS[kind])])
    text = _csv(rows)
    want = _outcome(loop_parse_price_csv, text)
    got = _outcome(parse_price_csv, text)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, PriceSeries)
    np.testing.assert_array_equal(got.ordinals, [bar[0].toordinal() for bar in want])
    assert got.ohlca.tobytes() == np.array([bar[1:6] for bar in want]).tobytes()
    assert got.volume.tolist() == [bar[6] for bar in want]


def test_parse_names_an_earlier_bad_bar_before_a_later_malformed_row():
    rows = _valid_rows(np.random.default_rng(0), 6)
    _broken(rows, 1, 2, "nan")
    _broken(rows, 4, 1, "oops")
    text = _csv(rows)
    with pytest.raises(DataError, match=r"^line 3: .*: open .* outside \[low, high\]$"):
        parse_price_csv(text)
    assert _outcome(parse_price_csv, text) == _outcome(loop_parse_price_csv, text)


def test_parse_names_a_bad_bar_after_blank_lines_by_its_own_line():
    rows = _valid_rows(np.random.default_rng(1), 3)
    _broken(rows, 2, 6, "-1")
    text = _csv(rows).replace("\n", "\n\n", 2)  # blank lines 2 and 4
    with pytest.raises(DataError, match=r"^line 6: .*negative volume -1$"):
        parse_price_csv(text)


# --- volumes beyond int64 ----------------------------------------------------


@pytest.mark.parametrize("volume", [INT64_MAX + 1, -INT64_MAX - 2, 10**30])
def test_parse_rejects_a_volume_beyond_int64_by_its_line(volume):
    rows = _valid_rows(np.random.default_rng(2), 5)
    _broken(rows, 3, 6, str(volume))
    _broken(rows, 4, 1, "oops")  # a later malformed row is not named
    with pytest.raises(DataError) as caught:
        parse_price_csv(_csv(rows))
    assert str(caught.value) == f"line 5: malformed row: volume {volume} does not fit in int64"


def test_parse_names_an_earlier_bad_bar_before_a_volume_beyond_int64():
    rows = _valid_rows(np.random.default_rng(2), 5)
    _broken(rows, 1, 5, "0")
    _broken(rows, 3, 6, str(INT64_MAX + 1))
    with pytest.raises(DataError, match=r"^line 3: .*adjusted price must be positive, got 0.0$"):
        parse_price_csv(_csv(rows))


def test_parse_keeps_the_extreme_int64_volume_exactly():
    rows = _valid_rows(np.random.default_rng(3), 2)
    _broken(rows, 1, 6, str(INT64_MAX))
    assert parse_price_csv(_csv(rows)).bars[1].volume == INT64_MAX


# --- weekly resampling -------------------------------------------------------


def test_resample_takes_max_high():
    template = daily_series([2.0] * 5)  # Mon..Fri of one week
    bars = [(b.date, 2.0, high, 1.0, 2.0, 2.0, 100) for b, high in zip(template.bars, [3.0, 7.0, 5.0, 6.0, 4.0])]
    weekly = resample_weekly(series_of(bars, DAILY))
    assert len(weekly) == 1
    assert weekly.bars[0].high == 7


def test_resample_single_bar_week():
    wednesday = date(2020, 1, 8)
    series = series_of([flat_bar(wednesday, 12.5, volume=777)], DAILY)
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


def test_resample_equals_the_per_bar_grouping_across_years_and_missing_mondays():
    # Weeks of 2019-12-30 and 2024-12-30 cross a year boundary; the Mondays
    # 2019-12-30, 2020-01-06 and 2020-12-28 are missing, and 2021-01-02 is a
    # Saturday bar in a week whose Monday lies in 2020.
    days = [date(2019, 12, 26), date(2019, 12, 27), date(2019, 12, 31), date(2020, 1, 2),
            date(2020, 1, 7), date(2020, 1, 10), date(2020, 1, 13), date(2020, 12, 29),
            date(2021, 1, 1), date(2021, 1, 2), date(2021, 1, 4), date(2024, 12, 30), date(2025, 1, 3)]
    rng = np.random.default_rng(3)
    bars = []
    for day, price in zip(days, 100.0 + rng.normal(0.0, 1.0, len(days)).cumsum()):
        spread = rng.uniform(0.1, 1.0, 2)
        bars.append((day, price, price + spread[0], price - spread[1], price, price * 0.5, int(rng.integers(0, 10**6))))
    edges = series_of(bars, DAILY)
    for series in (edges, trend_seasonal_daily(bars=1821, seed=2)):
        weekly = resample_weekly(series)
        assert weekly.interval == WEEKLY
        assert [tuple(bar) for bar in weekly.bars] == loop_resample_weekly(series.bars)
    assert [bar.date for bar in resample_weekly(edges).bars] == [
        date(2019, 12, 23), date(2019, 12, 30), date(2020, 1, 6), date(2020, 1, 13),
        date(2020, 12, 28), date(2021, 1, 4), date(2024, 12, 30),
    ]


def test_resample_rejects_weekly_input():
    series = series_of([flat_bar(date(2020, 1, 6), 10.0)], WEEKLY)
    with pytest.raises(DataError, match="already weekly"):
        resample_weekly(series)


def test_resample_rejects_a_weekly_volume_beyond_int64():
    # Three bars near the int64 limit: their wrapped int64 sum is positive.
    series = daily_series([5.0] * 6, [INT64_MAX, INT64_MAX, INT64_MAX, 0, 0, 2])
    assert np.add.reduceat(series.volume, [0, 5])[0] > 0
    with pytest.raises(DataError) as caught:
        resample_weekly(series)
    assert str(caught.value) == f"week of 2020-01-06: volume {3 * INT64_MAX} does not fit in int64"
    exact = resample_weekly(daily_series([5.0] * 6, [INT64_MAX - 7, 3, 4, 0, 0, 9]))
    assert [bar.volume for bar in exact.bars] == [INT64_MAX, 9]


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
