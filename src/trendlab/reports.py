"""Experiment report rows, aggregation, and CSV/JSON emission.

The CSV and JSON columns of `ReportRow` and `AggregateRow` follow their
dataclass field order. Floats are written with full shortest-round-trip
precision, so reruns with identical inputs produce identical bytes; NaN is
written as an empty CSV field and as JSON null, and null reads back as NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, enforce_field_types, field_types
from .market_data import write_csv

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportRow:
    """One experiment cell. `error` is non-empty when the cell failed, in
    which case the RMSE fields hold NaN."""

    model: str
    interval: str
    regime: str
    features: str
    seed: int
    train_rmse: float
    test_rmse: float
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


@dataclass(frozen=True)
class ForgetGateRow:
    window: int
    seed: int
    mean_forget: float


@dataclass(frozen=True)
class ForgetGateReport:
    rows: tuple[ForgetGateRow, ...]


def _to_csv(cls, rows) -> str:
    """`rows` of dataclass `cls`, one column per field."""
    names = tuple(field_types(cls))
    return write_csv(names, ([getattr(r, n) for n in names] for r in rows))


def report_to_csv(report: ExperimentReport) -> str:
    return _to_csv(ReportRow, report.rows)


def report_to_json(report: ExperimentReport) -> str:
    types = field_types(ReportRow)
    rows = [
        {
            n: None if t is float and math.isnan(getattr(r, n)) else getattr(r, n)
            for n, t in types.items()
        }
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


def forget_report_to_csv(report: ForgetGateReport) -> str:
    return write_csv(("window_size", "seed", "mean_forget"), ((r.window, r.seed, r.mean_forget) for r in report.rows))


@dataclass(frozen=True)
class AggregateRow:
    model: str
    interval: str
    regime: str
    features: str
    count: int
    train_rmse_mean: float
    train_rmse_std: float
    test_rmse_mean: float
    test_rmse_std: float


def aggregate_report(reports) -> tuple[AggregateRow, ...]:
    """Group successful rows by (model, interval, regime, features) and
    report mean and population standard deviation over seed replicates.
    Rows are ordered by group key.
    """
    groups: dict[tuple[str, str, str, str], list[ReportRow]] = {}
    for report in reports:
        if not isinstance(report, ExperimentReport):
            raise DataError(f"cannot aggregate {type(report).__name__}")
        for r in report.ok_rows:
            groups.setdefault((r.model, r.interval, r.regime, r.features), []).append(r)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        train = np.array([r.train_rmse for r in rows])
        test = np.array([r.test_rmse for r in rows])
        out.append(
            AggregateRow(
                model=key[0], interval=key[1], regime=key[2], features=key[3],
                count=len(rows),
                train_rmse_mean=float(train.mean()),
                train_rmse_std=float(train.std()),
                test_rmse_mean=float(test.mean()),
                test_rmse_std=float(test.std()),
            )
        )
    return tuple(out)


def aggregate_to_csv(rows: tuple[AggregateRow, ...]) -> str:
    return _to_csv(AggregateRow, rows)


def summary_table(report: ExperimentReport) -> str:
    """Human-readable fixed-width table for terminal output."""
    headers = ("model", "interval", "regime", "features", "seed", "train_rmse", "test_rmse", "status")
    body = []
    for r in report.rows:
        body.append(
            (r.model, r.interval, r.regime, r.features, str(r.seed),
             "-" if math.isnan(r.train_rmse) else f"{r.train_rmse:.4f}",
             "-" if math.isnan(r.test_rmse) else f"{r.test_rmse:.4f}",
             r.error or "ok")
        )
    widths = [max(len(h), *(len(row[k]) for row in body)) if body else len(h) for k, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)
