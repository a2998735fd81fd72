from __future__ import annotations

import ast
import csv
import math
import tracemalloc
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab import market_data
from trendlab.synthetic import trend_seasonal_daily
from trendlab.errors import DataError
from trendlab.features import ANSWER_COLUMN, INDEX_FUNDAMENTALS, SENTIMENT_COLUMN, TECHNICALS, parse_feature_csv
from trendlab.market_data import (
    DAILY,
    PRICE_CSV_HEADER,
    SENTIMENT_CSV_HEADER,
    WEEKLY,
    NormalizationScale,
    PriceSeries,
    compute_tdd,
    denormalize,
    fit_scale,
    normalize,
    parse_price_csv,
    parse_sentiment_csv,
    read_csv,
    resample_weekly,
    write_csv,
)

from conftest import EXPECTED_TDD, TABLE_ROWS, series_of, table_csv
from oracles import csv_rows, loop_parse_price_csv, loop_parse_sentiment_csv, loop_resample_weekly, row_write_csv

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
    columns = (
        [1, np.int64(2)], ["lstm", "rnn"], ["", date(2015, 1, 5)],
        [math.nan, np.float64(0.1)], ["DataError: short, 3 bars", -0.0],
    )
    assert write_csv(("n", "model", "date", "rmse", "error"), columns) == (
        'n,model,date,rmse,error\n1,lstm,,,"DataError: short, 3 bars"\n2,rnn,2015-01-05,0.1,-0.0\n'
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1728.339966])
def test_write_csv_writes_a_float_as_its_numpy_twin(value):
    assert write_csv(("v",), [[value]]) == write_csv(("v",), [[np.float64(value)]])


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.booleans())
def test_write_csv_floats_read_back_exactly(value, as_numpy):
    text = write_csv(("v",), [[np.float64(value) if as_numpy else value]])
    [[[field]]] = [[list(column) for column in block] for block in read_csv(text, ("v",))[1]]
    assert float(field).hex() == value.hex()


_CSV_TEXT = st.one_of(st.text(st.sampled_from(',"\n\r a'), max_size=4), st.text(max_size=4))
_CSV_CELLS = (
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]).map(np.float64),
    st.dates(),
    st.none(),
    _CSV_TEXT,
)


@st.composite
def csv_tables(draw):
    """A header and its columns: each column of one cell kind, of mixed
    kinds, or a float64 array."""
    rows = draw(st.integers(0, 5))
    header = draw(st.lists(_CSV_TEXT, min_size=1, max_size=4))
    columns = []
    for _ in header:
        cell = draw(st.sampled_from((*_CSV_CELLS, st.one_of(*_CSV_CELLS))))
        column = draw(st.lists(cell, min_size=rows, max_size=rows))
        if draw(st.booleans()) and all(isinstance(v, float) for v in column):
            column = np.array(column)
        columns.append(column)
    return header, columns


@settings(max_examples=400, deadline=None)
@given(csv_tables())
def test_write_csv_writes_what_the_row_wise_csv_writer_writes(table):
    header, columns = table
    assert write_csv(header, columns) == row_write_csv(header, zip(*columns))


def test_write_csv_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError):
        write_csv(("a", "b"), ([1, 2], [3]))


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


def test_no_module_imports_a_private_name_of_another():
    """A `_`-prefixed name stays in its module: no relative import in the
    package names one."""
    package = Path(market_data.__file__).parent
    crossings = [
        f"{path.name} <- {node.module}.{alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []


# Kept without a caller in the package: every `synthetic` function is a
# fixture of the tests and the bench; `report_from_json` waits for the
# per-cell report rows that ROADMAP item 15 plans; `blas.describe` names
# the BLAS kernel in `tests/golden_kernel.json`.
UNCALLED_ON_PURPOSE = {"reports.report_from_json", "blas.describe"}


def _referenced_names(nodes, strings=False) -> Counter:
    """How often each name, attribute and imported name occurs in the trees
    `nodes`, and with `strings` each string constant."""
    names = Counter()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_public_function_and_method_has_a_caller():
    """Each public module-level function and public method of the package
    is named in the package outside its own body, or in `perfbench/`,
    which patches some by their name as a string."""
    package = Path(market_data.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = _referenced_names(trees.values())
    bench = _referenced_names(
        [ast.parse(path.read_text()) for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))],
        strings=True,
    )
    uncalled = []
    for module, tree in trees.items():
        if module == "synthetic":
            continue
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in (node for body in scopes for node in body):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            outside = everywhere[node.name] - _referenced_names([node])[node.name]
            if not outside and node.name not in bench and f"{module}.{node.name}" not in UNCALLED_ON_PURPOSE:
                uncalled.append(f"{module}.{node.name}")
    assert uncalled == []


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
    # A row is named by its first line, also after a quoted newline.
    text = text.replace("2010-06-28", '"2010-06-28\n"')
    assert _outcome(parse_price_csv, text) == "DataError: line 4: malformed row: could not convert string to float: 'oops'"
    text = text.replace(",1,1,1,oops,1,100", ",1")
    assert _outcome(parse_price_csv, text) == "DataError: line 4: expected 7 fields, got 2"


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


PRICE_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def _csv(rows) -> str:
    return "\n".join([PRICE_HEADER, *(",".join(map(str, r)) for r in rows)]) + "\n"


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
    "volume beyond int64": [(6, str(INT64_MAX + 1)), (6, str(-INT64_MAX - 2))],
    "descending": [(0, None)],
}


def _broken(rows, k: int, column: int, value) -> None:
    rows[k][column] = rows[k - 1][0] if value is None else value


def _outcome(parse, text):
    try:
        return parse(text)
    except (DataError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


# How a CSV's rows are laid out as text: line ends, a byte-order mark,
# quoted fields, blank and whitespace-only lines, the final newline and rows
# of the wrong width; each position is a fraction of the row count.
LAYOUTS = st.fixed_dictionaries({
    "crlf": st.booleans(),
    "bom": st.booleans(),
    "quoted": st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 6)), max_size=3),
    "blanks": st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(["", " ", "\t", " \t  "])), max_size=3),
    "final_newline": st.booleans(),
    "widths": st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([-1, 1])), max_size=1),
})
PLAIN = {"crlf": False, "bom": False, "quoted": [], "blanks": [], "final_newline": True, "widths": []}

# Block sizes for the reader: every line a block of its own, a few lines
# per block, and the library's own.
BLOCK_SIZES = st.sampled_from([(16, 1), (150, 3), (400, 7), (market_data._BLOCK_CHARS, market_data._BLOCK_ROWS)])


def _laid_out(header: str, rows, layout) -> str:
    rows = [list(row) for row in rows]
    for position, column in layout["quoted"]:
        row = rows[int(position * len(rows))] if rows else []
        if column < len(row):
            row[column] = f'"{row[column]}"'
    for position, change in layout["widths"]:
        if rows:
            k = int(position * len(rows))
            rows[k] = rows[k][:-1] if change < 0 else [*rows[k], "1"]
    lines = [header, *(",".join(row) for row in rows)]
    for position, blank in layout["blanks"]:
        lines.insert(1 + int(position * len(rows)), blank)
    end = "\r\n" if layout["crlf"] else "\n"
    return ("\ufeff" if layout["bom"] else "") + end.join(lines) + (end if layout["final_newline"] else "")


def _with_blocks(block_size, parse, text):
    chars, rows = block_size
    with mock.patch.object(market_data, "_BLOCK_CHARS", chars), mock.patch.object(market_data, "_BLOCK_ROWS", rows):
        return _outcome(parse, text)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    faults=st.lists(st.tuples(st.sampled_from(sorted(BREAKS)), st.integers(0, 10**6)), max_size=2),
    positions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
    layout=LAYOUTS,
    block_size=BLOCK_SIZES,
)
def test_columnar_parse_equals_the_per_row_oracle(seed, n, faults, positions, layout, block_size):
    rows = _valid_rows(np.random.default_rng(seed), n)
    for (kind, pick), position in zip(faults, positions):
        k = int(position * n)
        if kind == "descending" and k == 0:
            continue
        _broken(rows, k, *BREAKS[kind][pick % len(BREAKS[kind])])
    text = _laid_out(PRICE_HEADER, rows, layout)
    want = _outcome(loop_parse_price_csv, text)
    got = _with_blocks(block_size, parse_price_csv, text)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, PriceSeries)
    np.testing.assert_array_equal(got.ordinals, [bar[0].toordinal() for bar in want])
    assert got.ohlca.tobytes() == np.array([bar[1:6] for bar in want]).tobytes()
    assert got.volume.tolist() == [bar[6] for bar in want]


def _block_rows(text: str, *headers: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(row) for block in read_csv(text, *headers)[1] for row in zip(*block)]


def _csv_reader_rows(text: str, *headers: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(row) for _, row in csv_rows(text, *headers)[1]]


def test_columnar_parse_equals_the_per_row_oracle_across_library_blocks():
    """Faults, blank lines, rows of the wrong width and lines longer than a
    block, at and around the block edges of a 4,600-row file."""
    rows = _valid_rows(np.random.default_rng(4), 4600)
    text = _csv(rows)
    edges = [text.count("\n", 0, k) - 1 for k in range(market_data._BLOCK_CHARS, len(text), market_data._BLOCK_CHARS)]
    assert len(edges) >= 10
    blanks = [(edges[1] / len(rows), ""), ((edges[1] + 1) / len(rows), " \t")]
    cases = [text, text.removesuffix("\n"), _laid_out(PRICE_HEADER, rows, {**PLAIN, "blanks": blanks})]
    for k, (kind, pick) in zip(edges, [("malformed", 2), ("nan", 0), ("volume beyond int64", 0), ("descending", 0)]):
        for row in (k - 1, k, k + 1):
            broken = [list(r) for r in rows]
            _broken(broken, row, *BREAKS[kind][pick])
            cases.append(_csv(broken))
    for row in (edges[2] - 1, edges[2], edges[2] + 1):
        cases.append(_laid_out(PRICE_HEADER, rows, {**PLAIN, "blanks": blanks, "widths": [(row / len(rows), 1)]}))
    long_line = [list(r) for r in rows]
    long_line[edges[0]][1] = " " * market_data._BLOCK_CHARS + long_line[edges[0]][1]
    cases.append(_csv(long_line))
    long_line[edges[0] + 3][1] = "oops"
    cases.append(_csv(long_line))
    long_line[edges[0] + 3][1] = rows[edges[0] + 3][1]
    long_line[edges[0]][1] = " " * csv.field_size_limit() + long_line[edges[0]][1]  # csv refuses the field
    cases.append(_csv(long_line))
    for text in cases:
        tokens = _outcome(lambda text: _block_rows(text, PRICE_CSV_HEADER), text)
        assert tokens == _outcome(lambda text: _csv_reader_rows(text, PRICE_CSV_HEADER), text)
        want = _outcome(loop_parse_price_csv, text)
        got = _outcome(parse_price_csv, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.ohlca.tobytes() == np.array([bar[1:6] for bar in want]).tobytes()
            assert got.volume.tolist() == [bar[6] for bar in want]


# Lines of a CSV body: a row of the header's width or one field short or
# over, or a blank line; fields drawn from the characters `csv` treats
# specially and a few it does not.
CSV_FIELDS = st.text(st.sampled_from(list('ab. \t\r"\x00\x0b\x85\u2028\u00e9')), max_size=4)
CSV_LINES = st.lists(
    st.tuples(st.sampled_from([0] * 6 + [-1, 1, None]), st.lists(CSV_FIELDS, min_size=4, max_size=4)), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(lines=CSV_LINES, plain=st.booleans(), width=st.integers(1, 3), bom=st.booleans(), block_size=BLOCK_SIZES)
def test_read_csv_blocks_hold_the_rows_csv_reader_reads(lines, plain, width, bom, block_size):
    header = ("x", "y", "z")[:width]
    body = "\n".join(" \t"[: len(fields[0]) % 3] if change is None else ",".join(fields[: max(1, width + change)])
                     for change, fields in lines)
    if plain:  # text the reader splits itself
        body = body.replace('"', "").replace("\r", "")
    text = ("\ufeff" if bom else "") + " , ".join(header) + "\n" + body
    want = _outcome(lambda text: _csv_reader_rows(text, header), text)
    assert _with_blocks(block_size, lambda text: _block_rows(text, header), text) == want


def test_read_csv_reads_the_header_as_csv_reader_does():
    for text in ("", "\n", "\ufeff", " \n1,2\n", "x,y", "x ,\ty\n", '"x",y\n', "x,y,\n"):
        want = _outcome(lambda text: csv_rows(text, ("x", "y"))[0], text)
        assert _outcome(lambda text: read_csv(text, ("x", "y"))[0], text) == want


def test_parse_price_csv_peak_memory_stays_below_the_per_row_oracle():
    """Blocks bound what a parse holds beyond its input and output: on an
    18-year daily file it peaks below the row-wise parse of the same text."""
    text = _csv([[b.date.isoformat(), *map(repr, b[1:6]), str(b.volume)] for b in trend_seasonal_daily(4600).bars])

    def peak(parse) -> int:
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_price_csv) <= peak(loop_parse_price_csv)


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


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["split by the reader", "tokenised by csv"])
def test_parse_names_a_field_beyond_the_csv_size_limit_by_its_line(end):
    long_row = "2020-01-06," + " " * 140_000 + "1,1,1,1,1,100"
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume", long_row, "2020-01-07,1,1,1,1,1,100"]
    text = end.join(lines) + end
    assert _outcome(parse_price_csv, text) == "DataError: line 2: field larger than field limit (131072)"
    lines.insert(1, "2020-01-03,5,1,1,1,1,100")  # an earlier bad bar keeps precedence
    text = end.join(lines) + end
    assert _outcome(parse_price_csv, text) == "DataError: line 2: 2020-01-03: open 5.0 outside [low, high]"
    text = "Date,Open,High,Low,Close,Adj Close,Volume\n2020-01-06,1\r2,1,1,1,1,100\n"  # csv's other refusal
    assert _outcome(parse_price_csv, text).startswith("DataError: line 2: new-line character seen in unquoted field")
    index_header = INDEX_FUNDAMENTALS + TECHNICALS + (SENTIMENT_COLUMN, ANSWER_COLUMN)
    for parse, header in ((parse_price_csv, PRICE_CSV_HEADER), (parse_sentiment_csv, SENTIMENT_CSV_HEADER),
                          (parse_feature_csv, index_header)):
        text = " " * 140_000 + ",".join(header) + end  # stripped, a header the parser accepts
        assert _outcome(parse, text) == "DataError: line 1: field larger than field limit (131072)"


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


# --- sentiment parsing -------------------------------------------------------


# Edits that break one sentiment row: (column, value); a value of None
# copies an earlier row's date.
SENTIMENT_BREAKS = {
    "malformed date": [(0, "2020-02-30"), (0, "x"), (0, "")],
    "malformed score": [(1, "high"), (1, ""), (1, "0.5.1")],
    "nan": [(1, "nan"), (1, "NaN")],
    "outside": [(1, "1.5"), (1, "-0.1"), (1, "inf"), (1, "-inf"), (1, "1.0000000000000002")],
    "duplicate": [(0, None)],
}


def _sentiment_rows(rng, n: int) -> list[list[str]]:
    ordinals = date(2010, 1, 4).toordinal() + np.cumsum(rng.integers(1, 9, n))
    rng.shuffle(ordinals)  # scores by date need no order
    scores = rng.uniform(0.0, 1.0, n)
    scores[rng.uniform(size=n) < 0.1] = 0.0
    scores[rng.uniform(size=n) < 0.1] = 1.0
    texts = [repr(v) if k % 3 else f" {v!r} " for k, v in enumerate(scores.tolist())]
    return [[date.fromordinal(d).isoformat(), v] for d, v in zip(ordinals.tolist(), texts)]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    faults=st.lists(st.tuples(st.sampled_from(sorted(SENTIMENT_BREAKS)), st.integers(0, 10**6)), max_size=2),
    positions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
    layout=LAYOUTS,
    block_size=BLOCK_SIZES,
)
def test_sentiment_parse_equals_the_per_row_oracle(seed, n, faults, positions, layout, block_size):
    rng = np.random.default_rng(seed)
    rows = _sentiment_rows(rng, n)
    for (kind, pick), position in zip(faults, positions):
        k = int(position * n)
        if n == 0 or (kind == "duplicate" and k == 0):
            continue
        column, value = SENTIMENT_BREAKS[kind][pick % len(SENTIMENT_BREAKS[kind])]
        rows[k][column] = rows[int(rng.integers(0, k))][0] if value is None else value
    text = _laid_out("Date,Sentiment", rows, layout)
    want = _outcome(loop_parse_sentiment_csv, text)
    got = _with_blocks(block_size, parse_sentiment_csv, text)
    if isinstance(want, str):
        assert got == want
        return
    assert [(d, v.hex()) for d, v in got.items()] == [(d, v.hex()) for d, v in want.items()]


def test_sentiment_parse_names_each_fault_by_its_line():
    text = "Date,Sentiment\n2020-01-06,0.5\n\n2020-01-13,1.5\n2020-01-06,0.2\n"
    assert _outcome(parse_sentiment_csv, text) == "DataError: line 4: sentiment 1.5 outside [0, 1]"
    text = text.replace("1.5", "1")
    assert _outcome(parse_sentiment_csv, text) == "DataError: line 5: duplicate date 2020-01-06"
    assert _outcome(parse_sentiment_csv, "Date,Sentiment\n \n") == "DataError: no sentiment rows"
    text = 'Date,Sentiment\n"2020-01-06\n",0.5\n2020-01-07,x\n'  # a row is named by its first line
    assert _outcome(parse_sentiment_csv, text) == "DataError: line 4: malformed row: could not convert string to float: 'x'"
    text = 'Date,Sentiment\n"2020-01-06\n",x\n'
    assert _outcome(parse_sentiment_csv, text) == "DataError: line 2: malformed row: could not convert string to float: 'x'"


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
