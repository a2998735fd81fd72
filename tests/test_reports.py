from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from trendlab.errors import DataError
from trendlab.reports import (
    AggregateRow,
    ExperimentReport,
    ForgetGateReport,
    ForgetGateRow,
    ReportRow,
    aggregate_report,
    aggregate_to_csv,
    forget_report_to_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
)


def test_report_json_round_trip_keeps_failed_rows():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "bull", "full", 0, 0.125, 0.3333333333333333, 12.5),
        ReportRow("rnn", "daily", "all", "no_sentiment", 1, math.nan, math.nan, 3.0, error="DataError: too short"),
        ReportRow("lstm", "daily", "bear", "full", 2, math.nan, math.nan, math.nan, error="DivergenceError: boom"),
    ))
    text = report_to_json(report)
    back = report_from_json(text)
    assert report_to_json(back) == text
    assert back.rows[0] == report.rows[0]
    assert [r.ok for r in back.rows] == [True, False, False]
    for got, want in zip(back.rows[1:], report.rows[1:]):
        assert (got.model, got.interval, got.regime, got.features, got.seed, got.error) == (
            want.model, want.interval, want.regime, want.features, want.seed, want.error
        )
        assert math.isnan(got.train_rmse) and math.isnan(got.test_rmse)
    assert back.rows[1].wall_ms == 3.0
    assert math.isnan(back.rows[2].wall_ms)


def test_report_csv_columns_follow_field_order_and_write_nan_empty():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "bull", "full", 0, 0.1, 0.2, 3.0),
        ReportRow("rnn", "daily", "all", "full", 1, math.nan, math.nan, math.nan, error="DataError: short"),
    ))
    assert report_to_csv(report).splitlines() == [
        ",".join(f.name for f in fields(ReportRow)),
        "lstm,weekly,bull,full,0,0.1,0.2,3.0,",
        "rnn,daily,all,full,1,,,,DataError: short",
    ]
    rows = json.loads(report_to_json(report))["rows"]
    assert [list(r) for r in rows] == [[f.name for f in fields(ReportRow)]] * 2
    assert [rows[1][k] for k in ("train_rmse", "test_rmse", "wall_ms")] == [None, None, None]


def test_report_from_json_requires_fields_without_defaults():
    row = ReportRow("lstm", "weekly", "all", "full", 0, 0.1, 0.2, 3.0)
    doc = json.loads(report_to_json(ExperimentReport(rows=(row,))))
    del doc["rows"][0]["error"]
    assert report_from_json(json.dumps(doc)).rows[0].error == ""
    del doc["rows"][0]["seed"]
    with pytest.raises(DataError, match="report schema mismatch"):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.7), ("seed", True), ("seed", "1"), ("train_rmse", "0.5"), ("test_rmse", True),
     ("wall_ms", [1.0]), ("model", 5), ("error", None)],
)
def test_report_from_json_rejects_a_mistyped_field(key, value):
    row = ReportRow("lstm", "weekly", "all", "full", 0, 0.1, 0.2, 3.0)
    doc = json.loads(report_to_json(ExperimentReport(rows=(row,))))
    assert report_from_json(json.dumps(doc)).rows == (row,)
    doc["rows"][0][key] = value
    with pytest.raises(DataError, match=f"^report schema mismatch: {key} must be "):
        report_from_json(json.dumps(doc))


def test_aggregate_csv_columns_follow_field_order():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "all", "full", 0, 0.25, 0.5, 1.0),
        ReportRow("lstm", "weekly", "all", "full", 1, 0.75, 1.5, 1.0),
    ))
    assert aggregate_to_csv(aggregate_report([report])).splitlines() == [
        ",".join(f.name for f in fields(AggregateRow)),
        "lstm,weekly,all,full,2,0.5,0.25,1.0,0.5",
    ]


def test_forget_report_csv_holds_one_exact_row_per_window_and_seed():
    report = ForgetGateReport(rows=(ForgetGateRow(4, 0, 0.1), ForgetGateRow(8, 1, np.float64(2.0) / 3.0)))
    assert forget_report_to_csv(report) == "window_size,seed,mean_forget\n4,0,0.1\n8,1,0.6666666666666666\n"
