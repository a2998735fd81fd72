from __future__ import annotations

import json
from pathlib import Path

import pytest

from trendlab.cli import main
from trendlab.synthetic import sine_series


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
