"""The benchmark's traced run patches trendlab functions by module and name,
as listed in `perfbench/layers.py`. Resolving every one of them here makes a
rename fail the test suite, not only the traced benchmark run, and so does a
call that stops going through its patched module name: each workload's
command, run small, must call every boundary required for that workload."""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from trendlab import cli, training
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.market_data import resample_weekly
from trendlab.synthetic import planted_sentiment, regime_fixture, sine_series, trend_seasonal_daily

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from layers import BOUNDARIES, GRID, PREDICT, TRAIN  # noqa: E402
from workloads import write_config, write_price_csv, write_sentiment_csv  # noqa: E402

TINY = {"epochs": 2, "layers": 1, "hidden_size": 2, "window": 4}


def _counted(name, real, calls: Counter):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return wrapper


def test_every_benchmark_boundary_resolves():
    missing = [
        b.key for b in BOUNDARIES
        if not callable(getattr(importlib.import_module(b.module), b.attr, None))
    ]
    assert missing == []


def test_train_calls_every_training_boundary(monkeypatch):
    names = [b.attr for b in BOUNDARIES if b.module == training.__name__]
    assert names, "no boundary on the training module"
    calls = Counter()
    for name in names:
        monkeypatch.setattr(training, name, _counted(name, getattr(training, name), calls))
    bundle = prepare_dataset(build_feature_frame(sine_series()), window=4)
    training.train(bundle.dataset, training.TrainConfig(epochs=2, layers=1, hidden_size=2, window=4))
    assert [name for name in names if calls[name] == 0] == []


def _weekly_inputs(work: Path, series) -> dict:
    write_price_csv(work / "prices.csv", series.bars)
    write_sentiment_csv(work / "sentiment.csv", planted_sentiment(series))
    return dict(price_csv=work / "prices.csv", sentiment_csv=work / "sentiment.csv",
                interval="weekly", price_interval="weekly", output_dir=work / "out")


def _command(workload: str, work: Path) -> list[str]:
    """A small run of the command the workload times, on inputs of the same
    shape: weekly prices for `train` and `experiment regime`, daily prices
    resampled weekly for `predict`, each with a sentiment CSV."""
    if workload == TRAIN:
        config = write_config(work / "train.json", **_weekly_inputs(work, sine_series(bars=80)), train=TINY)
        return ["train", "--config", str(config)]
    if workload == GRID:
        series, segments = regime_fixture(bars_per_segment=60)
        config = write_config(
            work / "grid.json", **_weekly_inputs(work, series), train=TINY,
            experiments={"seeds": [0], "segments": [[s.isoformat(), e.isoformat()] for s, e in segments]},
        )
        return ["experiment", "regime", "--config", str(config)]
    daily = trend_seasonal_daily(bars=400)
    write_price_csv(work / "daily.csv", daily.bars)
    write_sentiment_csv(work / "sentiment.csv", planted_sentiment(resample_weekly(daily)))
    common = dict(price_csv=work / "daily.csv", sentiment_csv=work / "sentiment.csv", interval="weekly",
                  price_interval="daily")
    trained = write_config(work / "train.json", output_dir=work / "checkpoint", train=TINY, **common)
    assert cli.main(["train", "--config", str(trained)]) == 0
    config = write_config(
        work / "predict.json", checkpoint=work / "checkpoint" / "checkpoint.json", output_dir=work / "out", **common
    )
    return ["predict", "--config", str(config)]


@pytest.mark.parametrize("workload", [TRAIN, GRID, PREDICT])
def test_each_workload_command_calls_every_boundary_it_requires(tmp_path, monkeypatch, workload):
    argv = _command(workload, tmp_path)
    required = [b for b in BOUNDARIES if workload in b.required]
    calls = Counter()
    for b in required:
        module = importlib.import_module(b.module)
        monkeypatch.setattr(module, b.attr, _counted(b.key, getattr(module, b.attr), calls))
    assert cli.main(argv) == 0
    assert [b.key for b in required if calls[b.key] == 0] == []
