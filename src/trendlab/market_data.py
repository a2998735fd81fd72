"""Price and sentiment CSV ingestion, weekly resampling and normalization.
`read_csv` holds the header and row-width rule of every CSV reader,
`first_row_fault` the fault path of every CSV parser, and `write_csv` the
cell rule of every CSV writer, applied a column at a time.

`read_csv` hands a file's body over in column blocks: text of whole lines,
at most ~8 KB at a time, split at its newlines and commas in one pass, so
that every parser converts whole columns of field strings (`map(float, ...)`
and the like) into arrays, joined across blocks. Text holding a
`"` or a `\\r` is tokenised by `csv.reader` instead, row by row, so quoting
and CRLF line ends keep `csv`'s rules; both give the same fields and line
numbers. Only a file that fails to convert or to check is read again, one
row at a time, by `first_row_fault`: each parser hands it only its check of
one row, and it names the first row refused, by the row's first line.

A `PriceSeries` is columnar (date ordinals, an (n, 5) price block, volumes)
and checks every bar invariant at once over whole columns; parsing,
resampling and slicing build columns directly, with no per-bar objects.

All functions here are pure: they validate their inputs, never mutate them,
and are safe to call concurrently.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError

DAILY = "daily"
WEEKLY = "weekly"
INTERVALS = (DAILY, WEEKLY)

# Yahoo Finance export schema; the only accepted price CSV header.
PRICE_CSV_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")
SENTIMENT_CSV_HEADER = ("Date", "Sentiment")

# Columns of `PriceSeries.ohlca`, in price CSV order.
PRICE_FIELDS = ("open", "high", "low", "close", "adjusted")
OPEN, HIGH, LOW, CLOSE, ADJUSTED = range(len(PRICE_FIELDS))

_INT64_MAX = np.iinfo(np.int64).max

# One bar as plain Python values: a row of `PriceSeries.bars`.
PriceRow = namedtuple("PriceRow", ("date", *PRICE_FIELDS, "volume"))


class _BarFault(DataError):
    """A bar that breaks a bar invariant."""


def _check_bars(ordinals: np.ndarray, ohlca: np.ndarray, volume: np.ndarray) -> None:
    """Raise a _BarFault for the first bar, in row order, that breaks a bar
    invariant: low <= open <= high, low <= close <= high, volume >= 0,
    adjusted > 0 and every price finite, checked in that order per bar."""
    o, h, l, c, a = ohlca.T
    faults = np.vstack((~((l <= o) & (o <= h)), ~((l <= c) & (c <= h)), volume < 0, ~(a > 0), ~np.isfinite(ohlca.T)))
    bad = faults.any(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        bar = ohlca[k].tolist()
        messages = (f"open {bar[OPEN]} outside [low, high]", f"close {bar[CLOSE]} outside [low, high]",
                    f"negative volume {volume[k]}", f"adjusted price must be positive, got {bar[ADJUSTED]}",
                    *(f"non-finite {name}" for name in PRICE_FIELDS))
        raise _BarFault(f"{date.fromordinal(int(ordinals[k]))}: {messages[int(np.argmax(faults[:, k]))]}")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A price series' bars as read-only columns, in strictly ascending
    date order: `ordinals` (int64 `date.toordinal()` values), `ohlca`
    ((n, 5) float64 open, high, low, close, adjusted) and `volume` (int64).
    Every bar invariant is checked once, here, over whole columns."""

    interval: str
    ordinals: np.ndarray
    ohlca: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        if self.interval not in INTERVALS:
            raise DataError(f"unknown interval {self.interval!r}")
        ordinals = np.array(self.ordinals, dtype=np.int64)
        ohlca = np.array(self.ohlca, dtype=np.float64, order="C")
        volume = np.array(self.volume, dtype=np.int64)
        if not len(ordinals):
            raise DataError("empty series")
        shapes = (ordinals.shape, ohlca.shape, volume.shape)
        if shapes != ((len(ordinals),), (len(ordinals), len(PRICE_FIELDS)), (len(ordinals),)):
            raise DataError(f"price columns of shapes {shapes}; want (n,), (n, 5) and (n,)")
        for name, column in (("ordinals", ordinals), ("ohlca", ohlca), ("volume", volume)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        _check_bars(self.ordinals, self.ohlca, self.volume)
        steps = np.diff(self.ordinals)
        if (steps <= 0).any():
            k = int(np.argmax(steps <= 0))
            earlier, later = map(date.fromordinal, self.ordinals[k : k + 2].tolist())
            raise DataError(f"dates not ascending at {later} (after {earlier})")

    def __len__(self) -> int:
        return len(self.ordinals)

    @property
    def bars(self) -> tuple[PriceRow, ...]:
        """The bars as rows of Python values, built on each access: for
        writing fixture files, not for the pipeline."""
        columns = zip(self.ordinals.tolist(), self.ohlca.tolist(), self.volume.tolist())
        return tuple(PriceRow(date.fromordinal(d), *prices, v) for d, prices, v in columns)

    def adjusted(self) -> np.ndarray:
        return self.ohlca[:, ADJUSTED].copy()

    def dates(self) -> tuple[date, ...]:
        return tuple(map(date.fromordinal, self.ordinals.tolist()))

    def between(self, start: date, end: date) -> "PriceSeries":
        """Sub-series with start <= bar.date <= end."""
        lo, hi = np.searchsorted(self.ordinals, (start.toordinal(), end.toordinal() + 1))
        if lo >= hi:
            raise DataError(f"no bars between {start} and {end}")
        return PriceSeries(self.interval, self.ordinals[lo:hi], self.ohlca[lo:hi], self.volume[lo:hi])


def read_csv(text: str, *headers: tuple[str, ...]) -> tuple[tuple[str, ...], Iterator[list[Sequence[str]]]]:
    """The header of CSV `text`, which must be one of `headers`, and an
    iterator over its body in blocks: each block is a list of columns, one
    sequence of field strings per header name, holding the same number of
    rows. Blank and whitespace-only lines are dropped; every other row must
    hold as many fields as the header, or a DataError names its line (blank
    lines counted). A UTF-8 byte-order mark before the header and blanks
    around the header names are ignored.

    Text with no `"` or `\\r` is cut into blocks of whole lines of at most
    `_BLOCK_CHARS` characters (a longer line is a block of its own), and
    each block is split at its newlines and commas in one pass, so a
    parse holds one block's fields at a time. Other text is tokenised by
    `csv.reader`, as `read_csv_rows` does, in blocks of `_BLOCK_ROWS` rows:
    quoting and CRLF line ends keep `csv`'s rules. The two give the same
    fields, rows and line numbers for text both can read, and both name a
    row that `csv` refuses (a field beyond `csv.field_size_limit()`) by its
    line in a DataError. A block holds no line numbers: a caller that finds
    a bad field names its line with `first_row_fault`, on that error path
    only."""
    text = text.removeprefix("\ufeff")
    if '"' in text or "\r" in text:
        header, rows = read_csv_rows(text, *headers)
        return header, _row_blocks(rows)
    end = text.find("\n") % (len(text) + 1)  # the header line's end, or the text's
    header = _checked_header(csv.reader((text[:end],) if text else ()), headers)
    return header, _line_blocks(text, end + 1, len(header))


def read_csv_rows(text: str, *headers: tuple[str, ...]) -> tuple[tuple[str, ...], Iterator[tuple[int, list[str]]]]:
    """`read_csv` one row at a time: the header and an iterator over the
    non-blank rows, tokenised by `csv.reader`, each with the number of its
    first line (a quoted field may hold a newline). `read_csv` reads text
    it cannot split itself through it, and `first_row_fault` a refused
    file; no parser calls it directly."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    header = _checked_header(reader, headers)
    return header, _checked_rows(reader, len(header))


def first_row_fault(text: str, header: tuple[str, ...], check: Callable[[list[str]], None]) -> DataError:
    """The error of CSV `text` with `header` that a parser could not read:
    its rows read again one at a time, in order, until `check` refuses one.
    A ValueError of `check` names the row's line as a malformed row, and a
    DataError names the line before its own message. A row that
    `read_csv_rows` refuses raises its DataError."""
    for lineno, row in read_csv_rows(text, header)[1]:
        try:
            check(row)
        except ValueError as exc:
            return DataError(f"line {lineno}: malformed row: {exc}")
        except DataError as exc:
            return DataError(f"line {lineno}: {exc}")
    raise AssertionError("a CSV that parses has no fault")


# A body with no `"` or `\r` is tokenised in blocks of whole lines of at most
# this many characters (~80 price rows), a body with one in blocks of this
# many rows. A block's field strings take ~4 times its text, so 8 KB keeps
# them near 40 KB; 32 KB blocks saved ~0.15 ms per 7-year daily price file
# but raised the benchmark's `regime_grid` peak RSS by ~0.1 MB more.
_BLOCK_CHARS = 1 << 13
_BLOCK_ROWS = 64


def _checked_header(reader, headers: tuple[tuple[str, ...], ...]) -> tuple[str, ...]:
    """The first row of `reader`, stripped, which must be one of `headers`."""
    try:
        row = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"line 1: {exc}") from None
    if row is None:
        raise DataError("empty file: missing header")
    header = tuple(h.strip() for h in row)
    if header not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise DataError(f"unexpected header {header!r}; expected {expected}")
    return header


def _checked_rows(reader, width: int, offset: int = 0) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of `reader`, each numbered by its first line:
    `offset` plus the lines `reader` read before it, plus one. A DataError
    names the line of a row that `csv` refuses or that does not hold
    `width` fields."""
    while True:
        lineno = offset + reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise DataError(f"line {lineno}: expected {width} fields, got {len(row)}")
        yield lineno, row


def _row_blocks(rows: Iterator[tuple[int, list[str]]]) -> Iterator[list[Sequence[str]]]:
    while block := [row for _, row in islice(rows, _BLOCK_ROWS)]:
        yield list(zip(*block))


def _line_blocks(text: str, start: int, width: int) -> Iterator[list[Sequence[str]]]:
    """The columns of the lines of `text` from index `start` on, line 2, in
    blocks of whole lines. With no `"` or `\\r` in the text, a line's fields
    are its comma-separated parts, as `csv.reader` reads them. A block with
    a blank line, a line of another width or an over-long line is read again
    by `_checked_rows`, which drops blank lines and names other faults."""
    lineno, size = 2, len(text)
    while start < size:
        end = size if size - start <= _BLOCK_CHARS else text.rfind("\n", start, start + _BLOCK_CHARS + 1)
        if end < start:  # a line longer than a block is a block of its own
            end = text.find("\n", start) % (size + 1)
        lines = text[start:end].split("\n")
        first, lineno, start = lineno, lineno + len(lines), end + 1
        long = len(lines[0]) > _BLOCK_CHARS  # csv may refuse a field beyond its size limit
        if not lines[-1]:
            lines.pop()  # a blank line, or the end of the text's last line
        if long or width == 1 or set(map(str.count, lines, repeat(","))) != {width - 1}:
            lines = [",".join(row) for _, row in _checked_rows(csv.reader(lines), width, first - 1)]
        if lines:
            fields = ",".join(lines).split(",")
            yield [fields[j::width] for j in range(width)]


def write_csv(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """CSV text of `header` and its `columns` (one sequence of cells per
    header name, all of one length), each line ending in "\n". A float
    cell (Python or numpy) is written as `repr(float(v))`, which reads back
    exactly, and NaN and None as an empty field; any other cell as `csv`
    writes it: `str(v)`, quoted under QUOTE_MINIMAL.

    Each column is converted in one pass by `_column_text`, and the lines
    are joined from the converted columns."""
    fields = [[_cell_text(name), *_column_text(column)] for name, column in zip(header, columns, strict=True)]
    if len(fields) == 1:  # `csv` quotes a row's only field when it is empty
        fields = [[text or '""' for text in fields[0]]]
    return "\n".join(map(",".join, zip(*fields, strict=True))) + "\n"


def _csv_quotes(char: str) -> bool:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((char,))
    return out.getvalue() != char + "\n"


# The characters for which `csv.writer(lineterminator="\n")` quotes a field,
# found by asking `csv` once, so that the rule is this Python's own.
_QUOTE_CHARS = tuple(c for c in ',"\r\n' if _csv_quotes(c))


def _column_text(column: Sequence) -> Sequence[str]:
    """The fields of one column: a column of Python floats, or of ints and
    dates, or of strs that need no quotes, in one pass with no per-cell
    branch (an array's cells are its `tolist()`); any other column cell by
    cell through `_cell_text`."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds == {float}:
        texts = list(map(float.__repr__, column))
        return [text if text != "nan" else "" for text in texts] if "nan" in texts else texts
    if kinds <= {int, date}:
        return list(map(str, column))
    if kinds == {str} and not any(c in "".join(column) for c in _QUOTE_CHARS):
        return column
    return list(map(_cell_text, column))


def _cell_text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else repr(float(value))
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in _QUOTE_CHARS) else text


def parse_price_csv(text: str, interval: str = DAILY) -> PriceSeries:
    """Parse a `Date,Open,High,Low,Close,Adj Close,Volume` CSV into a PriceSeries.

    Dates must be ISO-8601 and strictly ascending, and volumes must fit in
    int64. A file that fails is read again by `first_row_fault`, which
    names the first row, in row order, that is malformed, holds a volume
    beyond int64 or breaks a bar invariant (checked in that order per row);
    a date out of order is reported only after every row has passed.
    """
    blocks = read_csv(text, PRICE_CSV_HEADER)[1]
    size = text.count("\n") + 1  # no fewer lines than rows
    ordinals, ohlca, volume = np.empty(size, np.int64), np.empty((len(PRICE_FIELDS), size)), np.empty(size, np.int64)
    k = 0
    try:
        for columns in blocks:
            n = len(columns[0])
            dates, *prices, volumes = _price_values(columns)
            ordinals[k : k + n] = np.fromiter(dates, np.int64, n)
            ohlca[:, k : k + n] = np.fromiter(chain(*prices), np.float64, len(prices) * n).reshape(-1, n)
            volume[k : k + n] = np.fromiter(volumes, np.int64, n)
            k += n
    except (ValueError, OverflowError, DataError):
        raise first_row_fault(text, PRICE_CSV_HEADER, _check_price_row) from None
    try:
        return PriceSeries(interval, ordinals[:k], ohlca[:, :k].T, volume[:k])
    except _BarFault:
        raise first_row_fault(text, PRICE_CSV_HEADER, _check_price_row) from None


def _price_values(columns: Sequence[Sequence[str]]) -> tuple[Iterator, ...]:
    """Iterators over the values of price CSV columns: date ordinals, the
    five prices and the volumes, each field converted on its own by
    `date.fromisoformat` (after `strip`), `float` or `int`."""
    dates, *prices, volumes = columns
    ordinals = map(date.toordinal, map(date.fromisoformat, map(str.strip, dates)))
    return (ordinals, *(map(float, column) for column in prices), map(int, volumes))


def _check_price_row(row: list[str]) -> None:
    """Convert one price CSV row as `parse_price_csv` does, then check that
    its volume fits in int64 and its bar keeps every bar invariant."""
    ordinal, *prices, volume = (next(column) for column in _price_values([(field,) for field in row]))
    if not -_INT64_MAX - 1 <= volume <= _INT64_MAX:
        raise ValueError(f"volume {volume} does not fit in int64")
    _check_bars(np.array([ordinal]), np.array([prices]), np.array([volume]))


def parse_sentiment_csv(text: str) -> dict[date, float]:
    """Parse a `Date,Sentiment` CSV into scores in [0, 1] by date. The dates
    are made once every block is read, from its kept date column, so that
    they are not allocated among the blocks' other field strings. A file
    that fails is read again by `first_row_fault`, which names its first
    malformed row, score outside [0, 1] or repeated date."""
    blocks = read_csv(text, SENTIMENT_CSV_HEADER)[1]
    date_columns, values = [], []
    try:
        for dates, scores in blocks:
            date_columns.append(dates)
            values.append(np.fromiter(map(float, scores), np.float64, len(scores)))
        values = np.concatenate(values) if values else np.empty(0)
        days = map(date.fromisoformat, map(str.strip, chain.from_iterable(date_columns)))
        scores = dict(zip(days, values.tolist())) if ((values >= 0.0) & (values <= 1.0)).all() else None
    except (ValueError, DataError):
        scores = None
    if scores is None or len(scores) != len(values):
        seen = set()

        def check(row: list[str]) -> None:
            when, value = date.fromisoformat(row[0].strip()), float(row[1])
            if not 0.0 <= value <= 1.0:
                raise DataError(f"sentiment {value} outside [0, 1]")
            if when in seen:
                raise DataError(f"duplicate date {when}")
            seen.add(when)

        raise first_row_fault(text, SENTIMENT_CSV_HEADER, check)
    if not scores:
        raise DataError("no sentiment rows")
    return scores


def resample_weekly(series: PriceSeries) -> PriceSeries:
    """Collapse daily bars into Monday-anchored weekly bars.

    open = first open, high = max high, low = min low, close/adjusted = last
    values, volume = sum, a DataError if that sum does not fit in int64. The
    weekly bar carries the Monday of its week.
    """
    if series.interval != DAILY:
        raise DataError("input already weekly")
    # Ordinal 1 (0001-01-01) is a Monday. Dates ascend, so the bars of one
    # week are adjacent: a week starts where the Monday changes.
    mondays = series.ordinals - (series.ordinals - 1) % 7
    starts = np.flatnonzero(np.diff(mondays, prepend=mondays[0] - 1))
    ends = np.append(starts[1:], len(series)) - 1
    prices = series.ohlca
    high, low = np.maximum.reduceat(prices[:, HIGH], starts), np.minimum.reduceat(prices[:, LOW], starts)
    ohlca = np.column_stack((prices[starts, OPEN], high, low, prices[ends, CLOSE], prices[ends, ADJUSTED]))
    if series.volume.max() > _INT64_MAX // 7:  # a week holds at most 7 bars: smaller volumes cannot overflow
        for monday, total in zip(mondays[starts].tolist(), np.add.reduceat(series.volume.astype(object), starts)):
            if total > _INT64_MAX:
                raise DataError(f"week of {date.fromordinal(monday)}: volume {total} does not fit in int64")
    volume = np.add.reduceat(series.volume, starts)
    return PriceSeries(WEEKLY, mondays[starts], ohlca, volume)


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
