"""Experiment report rows, aggregation, and CSV/JSON emission.

Every experiment writes one `ReportRow` per cell and `AggregateRow`s over
seeds; the CSV and JSON columns follow the dataclass field order. Floats
are written with full shortest-round-trip precision, so reruns with
identical inputs produce identical bytes; NaN is written as an empty CSV
field and as JSON null, and null reads back as NaN. Schema 2 added `window`
(also an aggregate group key) and `mean_forget`; schema 1 is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, enforce_field_types, field_types
from .market_data import write_csv

REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ReportRow:
    """One experiment cell. `mean_forget` is the mean forget-gate activation
    over the test windows (NaN for a plain recurrent cell). `error` is
    non-empty when the cell failed, and then the RMSEs and `mean_forget` are NaN."""

    model: str
    interval: str
    regime: str
    features: str
    window: int
    seed: int
    train_rmse: float
    test_rmse: float
    mean_forget: float
    wall_ms: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]

    @property
    def ok_rows(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if r.ok)

    @property
    def all_failed(self) -> bool:
        return bool(self.rows) and not self.ok_rows


def _to_csv(cls, rows) -> str:
    """`rows` of dataclass `cls`, one column per field."""
    names = tuple(field_types(cls))
    return write_csv(names, [[getattr(r, n) for r in rows] for n in names])


def report_to_csv(report: ExperimentReport) -> str:
    return _to_csv(ReportRow, report.rows)


def report_to_json(report: ExperimentReport) -> str:
    types = field_types(ReportRow)
    rows = [
        {n: None if t is float and math.isnan(getattr(r, n)) else getattr(r, n) for n, t in types.items()}
        for r in report.rows
    ]
    return json.dumps({"schema_version": REPORT_SCHEMA_VERSION, "rows": rows}, indent=1) + "\n"


def _read(value, kind):
    return math.nan if kind is float and value is None else value


def report_from_json(text: str) -> ExperimentReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"unreadable report: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise DataError("report schema mismatch")
    types = field_types(ReportRow)
    try:
        # A missing key keeps the field's default, or fails if it has none.
        rows = tuple(
            ReportRow(**{n: _read(raw[n], t) for n, t in types.items() if n in raw})
            for raw in doc["rows"]
        )
        for row in rows:
            enforce_field_types(row)
    except ConfigError as exc:
        raise DataError(f"report schema mismatch: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise DataError(f"report schema mismatch: {exc!r}") from None
    return ExperimentReport(rows=rows)


@dataclass(frozen=True)
class AggregateRow:
    model: str
    interval: str
    regime: str
    features: str
    window: int
    count: int
    train_rmse_mean: float
    train_rmse_std: float
    test_rmse_mean: float
    test_rmse_std: float
    mean_forget_mean: float


def aggregate_report(report: ExperimentReport) -> tuple[AggregateRow, ...]:
    """Group successful rows by (model, interval, regime, features, window)
    and report mean and population standard deviation over seed
    replicates. Rows are ordered by group key.
    """
    groups: dict[tuple[str, str, str, str, int], list[ReportRow]] = {}
    for r in report.ok_rows:
        groups.setdefault((r.model, r.interval, r.regime, r.features, r.window), []).append(r)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        train = np.array([r.train_rmse for r in rows])
        test = np.array([r.test_rmse for r in rows])
        out.append(AggregateRow(
            *key, count=len(rows), train_rmse_mean=float(train.mean()), train_rmse_std=float(train.std()),
            test_rmse_mean=float(test.mean()), test_rmse_std=float(test.std()),
            mean_forget_mean=float(np.mean([r.mean_forget for r in rows])),
        ))
    return tuple(out)


def aggregate_to_csv(rows: tuple[AggregateRow, ...]) -> str:
    return _to_csv(AggregateRow, rows)


def summary_table(report: ExperimentReport) -> str:
    """Human-readable fixed-width table for terminal output."""
    headers = ("model", "interval", "regime", "features", "window", "seed",
               "train_rmse", "test_rmse", "mean_forget", "status")
    body = [
        (r.model, r.interval, r.regime, r.features, str(r.window), str(r.seed),
         *("-" if math.isnan(v) else f"{v:.4f}" for v in (r.train_rmse, r.test_rmse, r.mean_forget)),
         r.error or "ok")
        for r in report.rows
    ]
    table = [headers, *body]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table)
