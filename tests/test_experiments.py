"""Tests for the experiment grids: every cell against a direct `train` on a
bundle prepared independently for it, one preparation per data variant, the
error rows that a failing variant or cell leaves behind, and the forked
helpers that run cells beside the caller."""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from trendlab import experiments
from trendlab.errors import DataError, DivergenceError
from trendlab.experiments import (
    FULL_FEATURES,
    MODELS,
    NO_SENTIMENT,
    ExperimentsSection,
    RunConfig,
    classify_regime,
    run_forget_gate_experiment,
    run_interval_experiment,
    run_regime_experiment,
    run_sentiment_ablation,
)
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.market_data import DAILY, WEEKLY, resample_weekly
from trendlab.network import LSTM, RNN, forward_batch
from trendlab.synthetic import planted_sentiment, regime_fixture, trend_seasonal_daily
from trendlab.training import TrainConfig, train

from oracles import pairwise_mean

CONFIG = RunConfig(
    train=TrainConfig(epochs=2, layers=1, hidden_size=3, window=4), experiments=ExperimentsSection(seeds=(0, 1))
)
SEEDS = CONFIG.experiments.seeds
PER_VARIANT = len(MODELS) * len(SEEDS)


def _config(config: RunConfig = CONFIG, **experiments) -> RunConfig:
    return replace(config, experiments=replace(config.experiments, **experiments))


@pytest.fixture(scope="module")
def regime_data():
    series, segments = regime_fixture(bars_per_segment=60)
    return series, segments, planted_sentiment(series)


@pytest.fixture(scope="module")
def daily_data():
    daily = trend_seasonal_daily(bars=400)
    return daily, planted_sentiment(daily)


def _prepare(frame):
    return prepare_dataset(frame, CONFIG.train.window, scale_fit=CONFIG.scale_fit)


def _assert_cells_match_direct_training(report, frames):
    """`frames` holds each variant's frame in row order. Every cell must be
    bit-equal to `train` on a fresh bundle, so a cell that mutated the bundle
    it shares with later cells fails here."""
    assert len(report.rows) == PER_VARIANT * len(frames)
    cells = [(model, seed) for model in MODELS for seed in SEEDS]
    for k, row in enumerate(report.rows):
        assert (row.model, row.seed) == cells[k % PER_VARIANT]
        assert row.error == ""
        bundle = _prepare(frames[k // PER_VARIANT])
        run = train(bundle.dataset, replace(CONFIG.train, cell=row.model, seed=row.seed))
        assert (row.train_rmse, row.test_rmse) == (run.train_rmse, run.test_rmse)


def test_regime_cells_match_direct_training(regime_data):
    series, segments, sentiment = regime_data
    report = run_regime_experiment(series, _config(segments=segments), sentiment)
    pieces = [series.between(*segment) for segment in segments]
    frames = [build_feature_frame(piece, CONFIG.indicators, sentiment) for piece in pieces]
    _assert_cells_match_direct_training(report, frames)
    labels = [classify_regime(piece, CONFIG.experiments.regime_threshold).value for piece in pieces]
    assert [row.regime for row in report.rows] == [label for label in labels for _ in range(PER_VARIANT)]


def test_interval_cells_match_direct_training(daily_data):
    daily, sentiment = daily_data
    report = run_interval_experiment(daily, CONFIG, sentiment)
    frames = [build_feature_frame(s, CONFIG.indicators, sentiment) for s in (daily, resample_weekly(daily))]
    _assert_cells_match_direct_training(report, frames)
    assert [row.interval for row in report.rows] == [DAILY] * PER_VARIANT + [WEEKLY] * PER_VARIANT


def test_sentiment_ablation_cells_match_direct_training(regime_data):
    series, _, sentiment = regime_data
    frame = build_feature_frame(series, CONFIG.indicators, sentiment)
    report = run_sentiment_ablation(frame, CONFIG)
    _assert_cells_match_direct_training(report, [frame, frame.without_sentiment()])
    features = [FULL_FEATURES] * PER_VARIANT + [NO_SENTIMENT] * PER_VARIANT
    assert [row.features for row in report.rows] == features


def _on_cpus(monkeypatch, cpus: int) -> None:
    """Run grids as if `cpus` CPUs were usable: `cpus - 1` helpers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call the grid makes to its global
    `name`. A forked helper's calls would not reach the list, so the grid
    runs on one CPU."""
    _on_cpus(monkeypatch, 1)
    calls = []
    real = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("grid", ["regime", "interval", "sentiment", "forget-gate"])
def test_each_variant_is_prepared_once(monkeypatch, regime_data, daily_data, grid):
    """Each variant's bundle is prepared once; the forget-gate windows all
    share one feature frame."""
    series, segments, sentiment = regime_data
    ablation_frame = build_feature_frame(series, CONFIG.indicators, sentiment)
    frames = _count_calls(monkeypatch, "build_feature_frame")
    bundles = _count_calls(monkeypatch, "prepare_dataset")
    if grid == "regime":
        report = run_regime_experiment(series, _config(segments=segments), sentiment)
        variants, built, per_variant = len(segments), len(segments), PER_VARIANT
    elif grid == "interval":
        report = run_interval_experiment(daily_data[0], CONFIG, daily_data[1])
        variants, built, per_variant = 2, 2, PER_VARIANT
    elif grid == "sentiment":
        report = run_sentiment_ablation(ablation_frame, CONFIG)
        variants, built, per_variant = 2, 0, PER_VARIANT
    else:
        report = run_forget_gate_experiment(series, _config(window_sizes=(3, 4, 5)), sentiment)
        variants, built, per_variant = 3, 1, len(SEEDS)  # LSTM cells only
    assert len(report.rows) == per_variant * variants
    assert all(row.error == "" for row in report.rows)
    assert (len(bundles), len(frames)) == (variants, built)


def test_unpreparable_segment_fails_only_its_cells(regime_data):
    series, segments, sentiment = regime_data
    late = series.bars[-20].date
    short = (late, late + (segments[0][1] - segments[0][0]))  # equal span, 20 bars left
    report = run_regime_experiment(series, _config(segments=(segments[0], short, segments[2])), sentiment)

    with pytest.raises(DataError) as expected:
        _prepare(build_feature_frame(series.between(*short), CONFIG.indicators, sentiment))
    failed = report.rows[PER_VARIANT:2 * PER_VARIANT]
    assert [row.error for row in failed] == [str(expected.value)] * PER_VARIANT
    assert all(math.isnan(row.train_rmse) and math.isnan(row.test_rmse) for row in failed)
    others = report.rows[:PER_VARIANT] + report.rows[2 * PER_VARIANT:]
    assert [row.error for row in others] == [""] * (2 * PER_VARIANT)
    assert all(math.isfinite(row.test_rmse) for row in others)


def _train_raising(monkeypatch, exc_type, cell: str, seed: int) -> None:
    real = experiments.train

    def flaky(dataset, config, **kwargs):
        if (config.cell, config.seed) == (cell, seed):
            raise exc_type("planted failure")
        return real(dataset, config, **kwargs)

    monkeypatch.setattr(experiments, "train", flaky)


def test_value_error_in_one_cell_becomes_a_typed_error_row(monkeypatch, regime_data):
    series, segments, sentiment = regime_data
    _train_raising(monkeypatch, ValueError, RNN, 1)
    report = run_regime_experiment(series, _config(segments=segments[1:2]), sentiment)
    errors = {(row.model, row.seed): row.error for row in report.rows}
    assert errors == {
        (LSTM, 0): "", (LSTM, 1): "", (RNN, 0): "", (RNN, 1): "ValueError: planted failure",
    }


def test_other_exceptions_in_a_cell_propagate(monkeypatch, regime_data):
    series, segments, sentiment = regime_data
    _train_raising(monkeypatch, TypeError, RNN, 1)
    with pytest.raises(TypeError, match="planted failure"):
        run_regime_experiment(series, _config(segments=segments[1:2]), sentiment)


def _train_in_helpers(monkeypatch, log, act=None) -> None:
    """`experiments.train` logs the pid that runs each cell to `log`. In a
    forked helper it then calls `act`; in the parent it first pauses, so that
    a helper is sure to claim cells."""
    parent, real = os.getpid(), experiments.train

    def logged(dataset, config, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if os.getpid() == parent:
            time.sleep(0.05)
        elif act is not None:
            act()
        return real(dataset, config, **kwargs)

    monkeypatch.setattr(experiments, "train", logged)


def test_helpers_run_cells_and_the_rows_equal_the_serial_run(monkeypatch, regime_data, tmp_path):
    series, segments, sentiment = regime_data
    config = _config(segments=segments)
    _on_cpus(monkeypatch, 1)
    serial = run_regime_experiment(series, config, sentiment, timer=lambda: 0.0)
    _on_cpus(monkeypatch, 3)
    _train_in_helpers(monkeypatch, tmp_path / "cells")
    parallel = run_regime_experiment(series, config, sentiment, timer=lambda: 0.0)
    assert repr(parallel.rows) == repr(serial.rows)  # repr, because NaN != NaN
    pids = (tmp_path / "cells").read_text().split()
    assert len(pids) == len(serial.rows) and len(set(pids)) > 1
    assert multiprocessing.active_children() == []


class _Planted(Exception):
    pass


def _unpicklable(message: str) -> Exception:
    class Local(Exception):  # pickle cannot find a class local to a function
        pass

    return Local(message)


def _raise(exc: Exception):
    raise exc


@pytest.mark.parametrize(
    "planted, expected, message",
    [
        (_Planted("planted failure"), _Planted, "planted failure"),
        (_unpicklable("planted failure"), RuntimeError, r"Local\('planted failure'\), which does not pickle"),
    ],
    ids=["picklable", "unpicklable"],
)
def test_an_exception_in_a_helper_reaches_the_caller_and_stops_the_grid(
    monkeypatch, regime_data, tmp_path, planted, expected, message
):
    """The helper's first cell raises. The exception arrives with its type
    and message (its repr in a RuntimeError when it does not pickle) and the
    helper's traceback as its cause, no further cell is handed out, and the
    helper is joined."""
    series, segments, sentiment = regime_data
    _on_cpus(monkeypatch, 2)
    _train_in_helpers(monkeypatch, tmp_path / "cells", lambda: _raise(planted))
    with pytest.raises(expected, match=message) as raised:
        run_regime_experiment(series, _config(segments=segments), sentiment)
    assert "in experiment helper process" in str(raised.value.__cause__)
    assert "planted failure" in str(raised.value.__cause__)
    assert len((tmp_path / "cells").read_text().split()) < len(segments) * PER_VARIANT
    assert multiprocessing.active_children() == []


def test_a_helper_that_exits_without_reporting_raises(monkeypatch, regime_data, tmp_path):
    series, segments, sentiment = regime_data
    _on_cpus(monkeypatch, 2)
    _train_in_helpers(monkeypatch, tmp_path / "cells", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before reporting its cells"):
        run_regime_experiment(series, _config(segments=segments), sentiment)
    assert multiprocessing.active_children() == []


def test_forget_gate_rows_match_direct_evaluation(regime_data):
    """Each row is the mean over the test windows, layers, steps and units
    of the forget gates of a model trained directly for its (window, seed),
    and carries that model's RMSEs."""
    series, _, sentiment = regime_data
    windows = (3, 5)
    config = _config(replace(CONFIG, train=replace(CONFIG.train, layers=2)), window_sizes=windows)
    report = run_forget_gate_experiment(series, config, sentiment)
    assert [(row.window, row.seed) for row in report.rows] == [(w, s) for w in windows for s in SEEDS]
    assert {(row.model, row.interval, row.regime, row.features) for row in report.rows} == {
        (LSTM, WEEKLY, "all", FULL_FEATURES)
    }
    frame = build_feature_frame(series, config.indicators, sentiment)
    for row in report.rows:
        dataset = prepare_dataset(frame, row.window, scale_fit=config.scale_fit).dataset
        run = train(dataset, replace(config.train, cell=LSTM, seed=row.seed, window=row.window))
        assert (row.train_rmse, row.test_rmse, row.mean_forget) == (run.train_rmse, run.test_rmse, run.test_mean_forget)
        cache = forward_batch(dataset.test.streams, run.parameters)
        n, steps, hidden = dataset.test.n_windows, row.window, config.train.hidden_size
        values = [
            float(layer.f[t, u, w])
            for w in range(n) for layer in cache.layers for t in range(steps) for u in range(hidden)
        ]
        assert len(values) == n * 2 * steps * hidden
        assert row.mean_forget == pairwise_mean(values)


@pytest.mark.parametrize("grid", ["regime", "forget-gate"])
def test_a_variant_without_test_windows_trains_none_of_its_cells(monkeypatch, regime_data, grid):
    series, segments, sentiment = regime_data
    trained = _count_calls(monkeypatch, "train")
    if grid == "regime":
        rows = build_feature_frame(series.between(*segments[0]), CONFIG.indicators, sentiment).n
        window = rows - 9  # 9 windows, all of them for training: ceil(9 * 15 / 16) = 9
        config = _config(replace(CONFIG, train=replace(CONFIG.train, window=window)), segments=segments[:1])
        report, cells = run_regime_experiment(series, config, sentiment), PER_VARIANT
    else:
        window = build_feature_frame(series, CONFIG.indicators, sentiment).n - 1  # one window, for training
        report, cells = run_forget_gate_experiment(series, _config(window_sizes=(window,)), sentiment), len(SEEDS)
    assert trained == []
    assert [row.error for row in report.rows] == ["experiment dataset produced an empty test split"] * cells
    assert [row.window for row in report.rows] == [window] * cells
    assert all(math.isnan(row.train_rmse) and math.isnan(row.mean_forget) for row in report.rows)
    assert all(math.isnan(row.wall_ms) for row in report.rows)


def test_a_diverging_forget_gate_seed_becomes_an_error_row(monkeypatch, regime_data):
    series, _, sentiment = regime_data
    _train_raising(monkeypatch, DivergenceError, LSTM, 1)
    report = run_forget_gate_experiment(series, _config(window_sizes=(3, 5)), sentiment)
    assert [(row.window, row.seed, row.error) for row in report.rows] == [
        (3, 0, ""), (3, 1, "planted failure"), (5, 0, ""), (5, 1, "planted failure"),
    ]
    failed = [(row.train_rmse, row.test_rmse, row.mean_forget) for row in report.rows if not row.ok]
    finite = [(row.train_rmse, row.test_rmse, row.mean_forget) for row in report.rows if row.ok]
    assert all(math.isnan(v) for values in failed for v in values)
    assert all(math.isfinite(v) for values in finite for v in values)


@pytest.mark.parametrize("grid", ["interval", "regime", "forget-gate"])
def test_use_sentiment_false_drops_the_stream_from_every_cell(monkeypatch, regime_data, daily_data, grid):
    series, segments, sentiment = regime_data
    config = _config(replace(CONFIG, use_sentiment=False), segments=segments, window_sizes=(3,))
    trained = _count_calls(monkeypatch, "train")
    if grid == "interval":
        report = run_interval_experiment(daily_data[0], config, daily_data[1])
    elif grid == "regime":
        report = run_regime_experiment(series, config, sentiment)
    else:
        report = run_forget_gate_experiment(series, config, sentiment)
    assert trained and all(dataset.sentiment is None for dataset, *_ in trained)
    assert {row.features for row in report.rows} == {NO_SENTIMENT}
    assert all(row.error == "" for row in report.rows)
