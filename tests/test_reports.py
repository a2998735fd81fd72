from __future__ import annotations

import json
import math
from dataclasses import fields

import pytest

from trendlab.errors import DataError
from trendlab.reports import (
    AggregateRow,
    REPORT_SCHEMA_VERSION,
    ExperimentReport,
    ReportRow,
    aggregate_report,
    aggregate_to_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
)


def test_report_json_round_trip_keeps_failed_rows():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "bull", "full", 12, 0, 0.125, 0.3333333333333333, 0.75, 12.5),
        ReportRow("rnn", "daily", "all", "no_sentiment", 12, 1, math.nan, math.nan, math.nan, 3.0,
                  error="DataError: too short"),
        ReportRow("lstm", "daily", "bear", "full", 4, 2, math.nan, math.nan, math.nan, math.nan,
                  error="DivergenceError: boom"),
    ))
    text = report_to_json(report)
    back = report_from_json(text)
    assert report_to_json(back) == text
    assert back.rows[0] == report.rows[0]
    assert [r.ok for r in back.rows] == [True, False, False]
    for got, want in zip(back.rows[1:], report.rows[1:]):
        assert (got.model, got.interval, got.regime, got.features, got.window, got.seed, got.error) == (
            want.model, want.interval, want.regime, want.features, want.window, want.seed, want.error
        )
        assert math.isnan(got.train_rmse) and math.isnan(got.test_rmse) and math.isnan(got.mean_forget)
    assert back.rows[1].wall_ms == 3.0
    assert math.isnan(back.rows[2].wall_ms)


def test_report_csv_columns_follow_field_order_and_write_nan_empty():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "bull", "full", 12, 0, 0.1, 0.2, 0.5, 3.0),
        ReportRow("rnn", "daily", "all", "full", 12, 1, math.nan, math.nan, math.nan, math.nan,
                  error="DataError: short"),
    ))
    assert report_to_csv(report).splitlines() == [
        "model,interval,regime,features,window,seed,train_rmse,test_rmse,mean_forget,wall_ms,error",
        "lstm,weekly,bull,full,12,0,0.1,0.2,0.5,3.0,",
        "rnn,daily,all,full,12,1,,,,,DataError: short",
    ]
    rows = json.loads(report_to_json(report))["rows"]
    assert [list(r) for r in rows] == [[f.name for f in fields(ReportRow)]] * 2
    assert [rows[1][k] for k in ("train_rmse", "test_rmse", "mean_forget", "wall_ms")] == [None] * 4


def test_report_from_json_requires_fields_without_defaults():
    row = ReportRow("lstm", "weekly", "all", "full", 12, 0, 0.1, 0.2, 0.5, 3.0)
    doc = json.loads(report_to_json(ExperimentReport(rows=(row,))))
    del doc["rows"][0]["error"]
    assert report_from_json(json.dumps(doc)).rows[0].error == ""
    del doc["rows"][0]["seed"]
    with pytest.raises(DataError, match="report schema mismatch"):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.7), ("seed", True), ("seed", "1"), ("train_rmse", "0.5"), ("test_rmse", True),
     ("wall_ms", [1.0]), ("model", 5), ("error", None), ("window", 4.0), ("mean_forget", "0.5")],
)
def test_report_from_json_rejects_a_mistyped_field(key, value):
    row = ReportRow("lstm", "weekly", "all", "full", 12, 0, 0.1, 0.2, 0.5, 3.0)
    doc = json.loads(report_to_json(ExperimentReport(rows=(row,))))
    assert report_from_json(json.dumps(doc)).rows == (row,)
    doc["rows"][0][key] = value
    with pytest.raises(DataError, match=f"^report schema mismatch: {key} must be "):
        report_from_json(json.dumps(doc))


def test_report_from_json_rejects_another_schema_version():
    row = ReportRow("lstm", "weekly", "all", "full", 12, 0, 0.1, 0.2, 0.5, 3.0)
    doc = json.loads(report_to_json(ExperimentReport(rows=(row,))))
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION == 2
    doc["schema_version"] = 1
    with pytest.raises(DataError, match="^report schema mismatch$"):
        report_from_json(json.dumps(doc))


def test_aggregate_csv_columns_follow_field_order():
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "all", "full", 12, 0, 0.25, 0.5, 0.5, 1.0),
        ReportRow("lstm", "weekly", "all", "full", 12, 1, 0.75, 1.5, 0.75, 1.0),
    ))
    assert aggregate_to_csv(aggregate_report([report])).splitlines() == [
        ",".join(f.name for f in fields(AggregateRow)),
        "lstm,weekly,all,full,12,2,0.5,0.25,1.0,0.5,0.625",
    ]


def test_aggregate_groups_by_window_and_leaves_out_failed_rows():
    """One group per window, ordered by window; an RNN group's forget mean
    is NaN, and a failed row counts in no group."""
    report = ExperimentReport(rows=(
        ReportRow("lstm", "weekly", "all", "full", 8, 0, 0.25, 0.5, 0.5, 1.0),
        ReportRow("lstm", "weekly", "all", "full", 4, 0, 0.5, 1.0, 0.25, 1.0),
        ReportRow("lstm", "weekly", "all", "full", 4, 1, math.nan, math.nan, math.nan, 1.0, error="boom"),
        ReportRow("rnn", "weekly", "all", "full", 4, 0, 0.5, 1.0, math.nan, 1.0),
    ))
    rows = aggregate_report([report])
    assert [(r.model, r.window, r.count) for r in rows] == [("lstm", 4, 1), ("lstm", 8, 1), ("rnn", 4, 1)]
    assert [r.mean_forget_mean for r in rows[:2]] == [0.25, 0.5]
    assert math.isnan(rows[2].mean_forget_mean)
    assert aggregate_to_csv(rows).splitlines()[3] == "rnn,weekly,all,full,4,1,0.5,0.0,1.0,0.0,"
