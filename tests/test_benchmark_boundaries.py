"""The benchmark's traced run patches trendlab functions by module and name,
as listed in `perfbench/layers.py`. Resolving every one of them here makes a
rename fail the test suite, not only the traced benchmark run, and so does a
call that stops going through its patched module name: each workload's
command, run small, must call every boundary required for that workload,
with arguments the boundary's work counter accepts."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from trendlab import cli, training
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.market_data import resample_weekly
from trendlab.synthetic import (
    paper_shaped_series,
    planted_sentiment,
    regime_fixture,
    sine_series,
    trend_seasonal_daily,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from layers import BOUNDARIES, GRID, PREDICT, TRAIN  # noqa: E402
from run import REFERENCE, reference_settings  # noqa: E402
from workloads import (  # noqa: E402
    DAILY_BARS,
    VARIANTS,
    WORKLOADS,
    run_request,
    write_config,
    write_price_csv,
    write_sentiment_csv,
)

TINY = {"epochs": 2, "layers": 1, "hidden_size": 2, "window": 4}


def _counted(name, real, calls: Counter, work=None):
    """`real`, counting its calls in `calls[name]`; with `work`, also
    computes the boundary's work count from each call's arguments, as the
    traced run does, so a call the counter cannot read fails here."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if work is not None:
            work(*args, **kwargs)
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
        monkeypatch.setattr(module, b.attr, _counted(b.key, getattr(module, b.attr), calls, b.work))
    assert cli.main(argv) == 0
    assert [b.key for b in required if calls[b.key] == 0] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_the_benchmark_correctness_gate(tmp_path, name):
    """Variant 0 of each workload, set up as the benchmark sets it up, runs
    one cycle of its requests, and every operation must agree with
    `reference.json` as in a timed run: a kernel change that moves the
    outputs past the gate's tolerance fails here, not only in the
    benchmark."""
    reference = json.loads(REFERENCE.read_text())
    assert reference["settings"] == reference_settings(workloads)
    workload = WORKLOADS[name](0, reference)
    workload.setup(tmp_path)
    for request in workload.deck():
        code, _ = run_request(request)
        assert workload.check(request, code) == [True] * workload.operations, request.key


# SHA-256 of the price CSV that `workloads.write_price_csv` writes for each
# fixture variant; `perfbench/reference.json` holds outputs computed on
# exactly these files.
FIXTURE_SHA256 = {
    "paper_shaped_series": (
        "0fef2070db7c6dcfedb8b397c71405fdc3ad59e556057fe1e4f42fa437fa4349",
        "d34fb8f3cee08d3d74b26369e18b1fdef95951e714443c28fabe72ee3e3ad04d",
        "3906491cae825f09e1ad7d5ae4ef9b3fd3b50b8277461221ca36223f6bce786a",
        "20c51286dd8e0882a62d40891b145a52ef49c56d096dbb68e029a55ad8a7746e",
        "9565e523e0dfae19a58bfac5fbb9963f691065f9a7b67501d46c024233d38833",
        "482927b2385a52c7117135f84a6ae3c313ccc41686a6ebc1d64656552d6873e8",
        "40b77e8bcd9e62eff9d6eeb59f743605449ac27687f71ea7481da8df525e9c9b",
        "bc983eec571424efeafe969c2a3c0fc9a9fab4bf2f1478114e7c5ddbaec33ae2",
    ),
    "trend_seasonal_daily": (
        "b41992d8780899029badcf1e2d11f8651d710afb9913bc8125f5cfebaedc6beb",
        "184b26ca56525b252da7a670ed775ef9a595b7cc8d3df610860ba1a5ba9f3a82",
        "0cefc577cb072decfa6a5ad60dd107301f3260d33d8f782701537085e7d51ad4",
        "5200c9948ca696b28274ffa25bc98d631e4e141a93ac68a1faef9cd77a11ed46",
        "37d319bd28e1bba5330efb08fd4575492efc9948325ee3f45708015d5da65b70",
        "9121e995a63be850df3f6d51adc2d0228b0516d370d67aee7470f81a0ac75f54",
        "2ba2735b9696e0ddfbbd361c2b0bcb389bf28392c2dc12309818b0af0cf473e7",
        "badfc88ed6d721d796e7adb032b09aaf56ae5f7beb69d771bb94ba9e52eb80de",
    ),
}


@pytest.mark.parametrize("variant", range(VARIANTS))
def test_benchmark_fixture_files_keep_their_bytes(tmp_path, variant):
    """`write_price_csv` formats each row of `series.bars` with repr, so a
    row holding numpy scalars instead of Python values changes these bytes."""
    fixtures = {
        "paper_shaped_series": paper_shaped_series(seed=variant),
        "trend_seasonal_daily": trend_seasonal_daily(bars=DAILY_BARS, seed=variant),
    }
    for name, series in fixtures.items():
        write_price_csv(tmp_path / "prices.csv", series.bars)
        assert hashlib.sha256((tmp_path / "prices.csv").read_bytes()).hexdigest() == FIXTURE_SHA256[name][variant]
