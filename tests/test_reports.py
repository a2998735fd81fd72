from __future__ import annotations

import math

from trendlab.reports import ExperimentReport, ReportRow, report_from_json, report_to_json


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
