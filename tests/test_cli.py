from __future__ import annotations

import json
from pathlib import Path

import csv

import pytest

from trendlab.cli import main
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.synthetic import regime_fixture, sine_series
from trendlab.training import rmse


def _write_prices(path: Path, bars) -> None:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for b in bars:
        lines.append(
            f"{b.date.isoformat()},{b.open!r},{b.high!r},{b.low!r},{b.close!r},{b.adjusted!r},{b.volume}"
        )
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def trained(tmp_path: Path) -> tuple[Path, Path]:
    """A tiny model trained through the CLI; returns (config, checkpoint)."""
    prices = tmp_path / "prices.csv"
    _write_prices(prices, sine_series(bars=80).bars)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices),
        "price_interval": "weekly",
        "interval": "weekly",
        "output_dir": str(tmp_path / "train"),
        "train": {"epochs": 1, "layers": 1, "hidden_size": 2, "window": 4},
    }))
    assert main(["train", "--config", str(config)]) == 0
    return config, tmp_path / "train" / "checkpoint.json"


def _edit_columns(checkpoint: Path, stream: str, names) -> None:
    doc = json.loads(checkpoint.read_text())
    doc["columns"][stream] = names
    checkpoint.write_text(json.dumps(doc))


def _predict(config: Path, checkpoint: Path, out: Path) -> int:
    return main(["predict", "--config", str(config), "--checkpoint", str(checkpoint), "--out", str(out)])


def test_predict_with_matching_columns_writes_predictions(trained, tmp_path):
    config, checkpoint = trained
    out = tmp_path / "predict"
    assert _predict(config, checkpoint, out) == 0
    assert (out / "predictions.csv").is_file()


@pytest.mark.parametrize(
    "stream, names",
    [
        ("fundamental", ["TDD", "Adj. Price", "Trading Vol."]),
        ("technical", ["CCI", "RSI", "MACD"]),
        ("sentiment", ["Mood"]),
        ("sentiment", None),
    ],
)
def test_predict_rejects_column_mismatch_before_writing(trained, tmp_path, stream, names, capsys):
    config, checkpoint = trained
    _edit_columns(checkpoint, stream, names)
    out = tmp_path / "predict"
    assert _predict(config, checkpoint, out) == 2
    assert f"{stream} columns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("cell", "rnn"), ("layers", 2), ("hidden_size", 3), ("d_i", 1)])
def test_predict_rejects_checkpoint_whose_config_disagrees_with_the_model(trained, tmp_path, field, value, capsys):
    config, checkpoint = trained
    doc = json.loads(checkpoint.read_text())
    doc["config"][field] = value
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "predict"
    assert _predict(config, checkpoint, out) == 2
    assert "disagrees with its config" in capsys.readouterr().err
    assert not out.exists()


def test_train_then_predict_reproduces_the_test_rmse(tmp_path):
    series = sine_series(bars=120)
    prices = tmp_path / "prices.csv"
    _write_prices(prices, series.bars)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices),
        "price_interval": "weekly",
        "interval": "weekly",
        "output_dir": str(tmp_path / "train"),
        "train": {"epochs": 5, "layers": 2, "hidden_size": 4, "window": 6},
    }))
    assert main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "train" / "checkpoint.json"
    assert _predict(config, checkpoint, tmp_path / "predict") == 0

    metrics = json.loads((tmp_path / "train" / "metrics.json").read_text())
    with open(tmp_path / "predict" / "predictions.csv", newline="") as handle:
        predictions = [float(row["prediction_normalized"]) for row in csv.DictReader(handle)]
    # Window k of the dataset is prediction row k; the last prediction row
    # is the window whose next price is not yet known.
    dataset = prepare_dataset(build_feature_frame(series), window=6).dataset
    assert len(predictions) == dataset.n_windows + 1
    test = predictions[dataset.split_index : dataset.n_windows]
    assert len(test) == metrics["n_test_windows"] > 1
    assert rmse(test, dataset.test.labels) == metrics["test_rmse"]


def test_regime_reports_are_byte_identical_with_or_without_threads_variable(tmp_path, monkeypatch):
    """Grid cells run serially and no environment variable selects threads:
    setting TRENDLAB_THREADS changes no output byte."""
    series, segments = regime_fixture(bars_per_segment=60)
    prices = tmp_path / "prices.csv"
    _write_prices(prices, series.bars)
    monkeypatch.setenv("TRENDLAB_CLOCK", "fixed")
    outputs = []
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("TRENDLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("TRENDLAB_THREADS", threads)
        out = tmp_path / f"out-{threads}"
        config = tmp_path / f"run-{threads}.json"
        config.write_text(json.dumps({
            "price_csv": str(prices),
            "price_interval": "weekly",
            "interval": "weekly",
            "output_dir": str(out),
            "train": {"epochs": 2, "layers": 1, "hidden_size": 3, "window": 4},
            "experiments": {
                "seeds": [0, 1],
                "segments": [[start.isoformat(), end.isoformat()] for start, end in segments],
            },
        }))
        assert main(["experiment", "regime", "--config", str(config)]) == 0
        names = ("regime_report.csv", "regime_report.json", "regime_aggregate.csv")
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]
