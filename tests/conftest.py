from __future__ import annotations

import multiprocessing
from datetime import date

import pytest

from trendlab.market_data import PriceSeries, WEEKLY

# Weekly NASDAQ-100-style sample rows used across the data tests.
TABLE_ROWS = [
    ("2010-06-28", 1761.97998, 1776.609985, 1700.040039, 1728.339966, 1728.339966, 6610950000),
    ("2010-07-05", 1752.97998, 1815.23999, 1719.199951, 1814.790039, 1814.790039, 7999170000),
    ("2010-07-12", 1814.48999, 1863.52002, 1802.540039, 1803.47998, 1803.47998, 10466210000),
    ("2010-07-19", 1807.98999, 1875.380005, 1784.550049, 1875.380005, 1875.380005, 10514210000),
    ("2010-07-26", 1875.77002, 1900.150024, 1833.900024, 1864.0, 1864.0, 10541390000),
    ("2010-08-02", 1886.609985, 1911.01001, 1873.439941, 1902.880005, 1902.880005, 9623140000),
    ("2010-08-09", 1911.380005, 1918.780029, 1807.459961, 1818.800049, 1818.800049, 9723350000),
    ("2010-08-16", 1806.969971, 1862.369995, 1801.73999, 1825.75, 1825.75, 9012350000),
    ("2010-08-23", 1833.329956, 1842.790039, 1747.319946, 1791.640015, 1791.640015, 9766090000),
]

EXPECTED_TDD = [86.450073, -11.310059, 71.900025, -11.380005, 38.880005, -84.079956, 6.949951, -34.109985]


def table_csv() -> str:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for when, o, h, l, c, adj, vol in TABLE_ROWS:
        lines.append(f"{when},{o},{h},{l},{c},{adj},{vol}")
    return "\n".join(lines) + "\n"


def edit_csv_field(text: str, line: int, column: str, value: str) -> str:
    """`text` with the field of `column` on 1-based CSV line `line` replaced."""
    lines = text.splitlines()
    fields = lines[line - 1].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def series_of(rows, interval: str = WEEKLY, symbol: str = "T") -> PriceSeries:
    """A PriceSeries of (date, open, high, low, close, adjusted, volume)
    rows; a date may be a `date` or its ISO text."""
    rows = list(rows)
    ordinals = [(d if isinstance(d, date) else date.fromisoformat(d)).toordinal() for d, *_ in rows]
    return PriceSeries(symbol, interval, ordinals, [row[1:6] for row in rows], [row[6] for row in rows])


@pytest.fixture
def table_series() -> PriceSeries:
    return series_of(TABLE_ROWS, symbol="NDX")


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails a test after which a helper process it forked still runs: the
    program must join every helper before it returns or raises."""
    yield
    assert multiprocessing.active_children() == [], "a forked helper process outlived the test"
