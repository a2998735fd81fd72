from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import csv

import pytest

from trendlab import cli, experiments
from trendlab.cli import EXPERIMENT_NAMES, NEUTRAL_FILL_WARNING, _apply_overrides, build_parser, load_run_config, main
from trendlab.experiments import RunConfig
from trendlab.features import build_feature_frame, feature_frame_to_csv, prepare_dataset
from trendlab.synthetic import paper_shaped_series, planted_sentiment, regime_fixture, sine_series, trend_seasonal_daily
from trendlab.training import rmse

from conftest import edit_csv_field


def _write_prices(path: Path, bars) -> None:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for b in bars:
        lines.append(
            f"{b.date.isoformat()},{b.open!r},{b.high!r},{b.low!r},{b.close!r},{b.adjusted!r},{b.volume}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_sentiment(path: Path, scores) -> None:
    lines = ["Date,Sentiment"] + [f"{d.isoformat()},{v!r}" for d, v in sorted(scores.items())]
    path.write_text("\n".join(lines) + "\n")


def _count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call the CLI makes to its global `name`."""
    calls = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


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
    # Without sentiment columns the checkpoint describes a smaller model
    # than its vector fills.
    assert ("the model needs" if names is None else f"{stream} columns") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("cell", "rnn"), ("layers", 2), ("hidden_size", 3), ("d_i", 1)])
def test_predict_rejects_checkpoint_whose_config_disagrees_with_the_model(trained, tmp_path, field, value, capsys):
    config, checkpoint = trained
    doc = json.loads(checkpoint.read_text())
    doc["config"][field] = value
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "predict"
    assert _predict(config, checkpoint, out) == 2
    assert "the model needs" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_a_checkpoint_whose_stream_widths_disagree_with_its_columns(tmp_path, capsys):
    """Stream widths 2 and 4 at d_i 3 fill the same vector as the trained
    widths 3 and 3, so only the widths' source can tell them apart."""
    prices = tmp_path / "prices.csv"
    _write_prices(prices, sine_series(bars=80).bars)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices), "price_interval": "weekly", "interval": "weekly",
        "output_dir": str(tmp_path / "train"),
        "train": {"epochs": 1, "layers": 1, "hidden_size": 2, "window": 4, "d_i": 3},
    }))
    assert main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "train" / "checkpoint.json"
    _edit_columns(checkpoint, "fundamental", ["Adj. Price", "TDD"])
    _edit_columns(checkpoint, "technical", ["RSI", "CCI", "MACD", "Volume"])
    out = tmp_path / "predict"
    assert _predict(config, checkpoint, out) == 2
    assert "fundamental columns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_train_then_predict_reproduces_the_test_rmse(tmp_path, cell):
    series = sine_series(bars=120)
    prices = tmp_path / "prices.csv"
    _write_prices(prices, series.bars)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices),
        "price_interval": "weekly",
        "interval": "weekly",
        "output_dir": str(tmp_path / "train"),
        "train": {"cell": cell, "epochs": 5, "layers": 2, "hidden_size": 4, "window": 6},
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


@pytest.mark.parametrize(
    "field, value",
    [("hidden_size", 2.5), ("window", 3.0), ("layers", True), ("epochs", 1.0), ("seed", 0.5), ("d_i", 2.0)],
)
def test_train_rejects_non_integer_config_fields_before_writing(tmp_path, field, value, capsys):
    prices = tmp_path / "prices.csv"
    _write_prices(prices, sine_series(bars=80).bars)
    train = {"epochs": 1, "layers": 1, "hidden_size": 2, "window": 4, field: value}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices),
        "price_interval": "weekly",
        "interval": "weekly",
        "output_dir": str(tmp_path / "train"),
        "train": train,
    }))
    assert main(["train", "--config", str(config)]) == 1
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("column, value", [("Sentiment", "nan"), ("Adj. Price", "inf")])
def test_train_rejects_non_finite_feature_csv_as_data_error(tmp_path, column, value, capsys):
    text = feature_frame_to_csv(build_feature_frame(sine_series(bars=80)))
    features = tmp_path / "features.csv"
    features.write_text(edit_csv_field(text, 5, column, value))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "feature_csv": str(features),
        "output_dir": str(tmp_path / "train"),
        "train": {"epochs": 1, "layers": 1, "hidden_size": 2, "window": 4},
    }))
    assert main(["train", "--config", str(config)]) == 2
    assert "line 5: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


TINY = {"epochs": 1, "layers": 1, "hidden_size": 2, "window": 4}
COMMANDS = [("features",), ("train",), ("predict",)] + [("experiment", which) for which in EXPERIMENT_NAMES]


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def _run_config(tmp_path: Path, **keys) -> Path:
    """A run config on an 80-bar weekly sine CSV with a tiny model, plus `keys`."""
    prices = tmp_path / "prices.csv"
    _write_prices(prices, sine_series(bars=80).bars)
    doc = {
        "price_csv": str(prices), "price_interval": "weekly", "interval": "weekly",
        "output_dir": str(tmp_path / "out"), "train": TINY, **keys,
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    return config


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkpoint")
    assert main(["train", "--config", str(_run_config(root))]) == 0
    return root / "out" / "checkpoint.json"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("experiments", "seeds", [0.5]),
        ("experiments", "window_sizes", [2.7]),
        ("experiments", "segments", [["2015-13-01", "2016-01-05"]]),
        (None, "use_sentiment", "false"),
        (None, "use_sentiment", 1),
        (None, "symbol", 5),
        ("experiments", "seeds", ["x"]),
        ("experiments", "regime_threshold", "x"),
        ("experiments", "seeds", 5),
        ("experiments", "segments", 5),
        (None, "output_dir", 5),
        (None, "price_csv", 5),
        ("indicators", "rsi_period", 14.5),
        ("train", "learning_rate", True),
        (None, "train", 5),
        ("experiments", "segments", []),
        ("experiments", "segments", [["2015-06-01", "2015-01-05"]]),
        ("experiments", "segments", [["2015-01-05", "2015-07-06"], ["2015-07-06", "2016-07-04"]]),
        ("experiments", "window_sizes", []),
        ("experiments", "segments", [{"start": "2015-01-05", "end": "2016-01-04"}]),
    ],
)
def test_mistyped_config_value_is_a_config_error_naming_the_key(
    tmp_path, monkeypatch, section, key, value, capsys
):
    monkeypatch.chdir(tmp_path)
    config = _run_config(tmp_path)
    doc = json.loads(config.read_text())
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    config.write_text(json.dumps(doc))
    before = _files(tmp_path)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize(
    "argv, keys, name",
    [
        (["train", "--lr", "inf"], {}, "learning_rate"),
        (["train", "--lr", "1e400"], {}, "learning_rate"),
        (["train"], {"train": {**TINY, "forget_bias": math.nan}}, "forget_bias"),
        (["features"], {"train": {**TINY, "forget_bias": math.nan}}, "forget_bias"),
        (["features"], {"indicators": {"cci_constant": math.inf}}, "cci_constant"),
        (["experiment", "regime"], {"experiments": {"regime_threshold": math.nan}}, "regime_threshold"),
        (["experiment", "regime"], {"experiments": {"regime_threshold": -1.0}}, "regime_threshold"),
        (["train", "--seed", "-1"], {}, "seed"),
        (["train"], {"train": {**TINY, "seed": -1}}, "seed"),
        (["experiment", "sentiment"], {"experiments": {"seeds": [0, -1]}}, "seeds"),
        (["experiment", "sentiment"], {"experiments": {"seeds": [0, 0]}}, "seeds"),
        (["experiment", "forget-gate"], {"experiments": {"seeds": [0], "window_sizes": [4, 5, 4]}}, "window_sizes"),
        (["experiment", "regime"], {"experiments": {"segments": [["2015-01-05", "2016-01-04"]] * 2}}, "segments"),
    ],
    ids=["lr inf", "lr 1e400", "train forget_bias NaN", "features forget_bias NaN", "cci_constant inf",
         "regime_threshold NaN", "regime_threshold negative", "seed flag negative", "train seed negative",
         "experiments seed negative", "experiments seed repeated", "window size repeated", "segment repeated"],
)
def test_a_non_finite_or_negative_config_number_is_a_config_error(tmp_path, monkeypatch, argv, keys, name, capsys):
    """Also a repeated seed, window size or segment: it would run one cell
    twice, and the aggregate would count the copy as a second sample."""
    monkeypatch.chdir(tmp_path)
    config = _run_config(tmp_path, **keys)
    before = _files(tmp_path)
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("section", [None, "indicators", "train", "experiments"])
def test_unknown_key_is_named_with_its_section(tmp_path, section, capsys):
    config = _run_config(tmp_path)
    doc = json.loads(config.read_text())
    (doc if section is None else doc.setdefault(section, {}))["bogus"] = 1
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == 1
    assert f"unknown {section or 'config'} keys: ['bogus']" in capsys.readouterr().err


@pytest.mark.parametrize("fault, code", [("unknown config key", 1), ("malformed price row", 2)])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_config_and_data_errors_exit_before_writing(
    tmp_path, checkpoint_file, monkeypatch, command, fault, code
):
    monkeypatch.chdir(tmp_path)
    config = _run_config(tmp_path, checkpoint=str(checkpoint_file))
    if fault == "unknown config key":
        config.write_text(json.dumps({**json.loads(config.read_text()), "bogus": 1}))
    else:
        prices = tmp_path / "prices.csv"
        if command[1:] in (("interval",), ("all",)):  # weekly prices would be a config error first
            _write_prices(prices, trend_seasonal_daily(bars=80).bars)
            config.write_text(json.dumps({**json.loads(config.read_text()), "price_interval": "daily"}))
        prices.write_text(edit_csv_field(prices.read_text(), 5, "Close", "abc"))
    before = _files(tmp_path)
    assert main([command[0], "--config", str(config), *command[1:]]) == code
    assert _files(tmp_path) == before


@pytest.mark.parametrize(
    "argv",
    [
        [], ["bogus"], ["train", "--config", "run.json", "--bogus"],
        ["train", "--config", "run.json", "--checkpoint", "c"],
    ],
    ids=["no subcommand", "unknown subcommand", "unknown flag", "checkpoint outside predict"],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_experiment_failing_in_every_cell_exits_2(tmp_path, capsys):
    series, segments = regime_fixture(bars_per_segment=60)
    prices = tmp_path / "prices.csv"
    _write_prices(prices, series.bars)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices), "price_interval": "weekly", "interval": "weekly",
        "output_dir": str(tmp_path / "out"),
        "train": {**TINY, "window": 40},
        "experiments": {"seeds": [0], "segments": [[s.isoformat(), e.isoformat()] for s, e in segments]},
    }))
    assert main(["experiment", "regime", "--config", str(config)]) == 2
    assert "failed in every cell" in capsys.readouterr().err
    with open(tmp_path / "out" / "regime_report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6 and all(row["error"] and row["test_rmse"] == "" for row in rows)


@pytest.mark.parametrize("epochs", [1, 3], ids=["in the final evaluation", "in an epoch"])
def test_divergence_exits_3_before_writing(tmp_path, epochs, capsys):
    config = _run_config(tmp_path, train={**TINY, "epochs": epochs, "learning_rate": 1e300})
    with pytest.warns(RuntimeWarning):  # numpy overflow on the way to the non-finite loss
        assert main(["train", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("divergence: ")
    assert not (tmp_path / "out").exists()


def test_a_forget_gate_run_diverging_in_every_cell_exits_2_with_its_error_rows(tmp_path, capsys):
    config = _run_config(
        tmp_path, train={**TINY, "learning_rate": 1e300}, experiments={"seeds": [0, 1], "window_sizes": [4, 5]}
    )
    with pytest.warns(RuntimeWarning):  # numpy overflow on the way to the non-finite loss
        assert main(["experiment", "forget-gate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: an experiment failed in every cell\n")
    with open(tmp_path / "out" / "forget_gate_report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["window"], row["seed"]) for row in rows] == [("4", "0"), ("4", "1"), ("5", "0"), ("5", "1")]
    assert all(row["error"].startswith("diverged at epoch ") and row["mean_forget"] == "" for row in rows)


@pytest.mark.parametrize(
    "flag, value, message",
    [("--epochs", "-1", "epochs must be non-negative"), ("--lr", "0", "learning_rate must be positive"),
     ("--window", "0", "window must be positive"), ("--layers", "0", "layers must be positive")],
)
def test_override_flags_are_validated_like_file_values(tmp_path, flag, value, message, capsys):
    config = _run_config(tmp_path)
    assert main(["train", "--config", str(config), flag, value]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_override_flags_set_their_fields():
    args = build_parser().parse_args([
        "predict", "--config", "run.json", "--seed", "9", "--out", "elsewhere", "--epochs", "3",
        "--lr", "0.5", "--layers", "4", "--window", "5", "--interval", "daily", "--no-sentiment",
        "--checkpoint", "model.json",
    ])
    base = RunConfig()
    assert _apply_overrides(base, args) == replace(
        base, output_dir=Path("elsewhere"), interval="daily", use_sentiment=False,
        checkpoint=Path("model.json"),
        train=replace(base.train, seed=9, epochs=3, learning_rate=0.5, layers=4, window=5),
    )
    assert _apply_overrides(base, build_parser().parse_args(["train", "--config", "run.json"])) == base


def test_the_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path):
    assert build_parser() is build_parser()
    config = _run_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["features", "--config", str(config)]
    assert main([*argv, "--out", str(first), "--window", "7", "--seed", "5", "--lr", "0.25"]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    echoes = [json.loads((out / "config.json").read_text()) for out in (first, second)]
    assert [echoes[0]["train"][key] for key in ("window", "seed", "learning_rate")] == [7, 5, 0.25]
    assert echoes[1] == {**json.loads(load_run_config(config).echo()), "output_dir": str(second)}


def test_config_echo_holds_every_key_and_loads_back_equal(tmp_path):
    doc = {
        "price_csv": "prices.csv", "sentiment_csv": "sentiment.csv", "feature_csv": None,
        "checkpoint": "model.json", "symbol": "SYM", "interval": "daily", "price_interval": "daily",
        "use_sentiment": False, "scale_fit": "full", "output_dir": "run",
        "indicators": {"rsi_period": 10, "cci_period": 15, "cci_constant": 0.02, "macd_fast": 8, "macd_slow": 20},
        "train": {"epochs": 7, "learning_rate": 1, "layers": 2, "hidden_size": 8, "window": 6, "seed": 3,
                  "cell": "rnn", "d_i": 4, "forget_bias": 0.5, "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-7},
        "experiments": {"seeds": [4, 5], "segments": [["2003-01-06", "2004-01-05"]],
                        "window_sizes": [2, 3], "regime_threshold": 0},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    cfg = load_run_config(config)
    echoed = json.loads(cfg.echo())
    assert echoed == {
        **doc,
        "train": {**doc["train"], "learning_rate": 1.0},
        "experiments": {**doc["experiments"], "regime_threshold": 0.0},
    }
    assert list(echoed) == list(doc)
    assert type(cfg.train.learning_rate) is float and type(cfg.experiments.regime_threshold) is float
    config.write_text(cfg.echo())
    assert load_run_config(config) == cfg


@pytest.mark.parametrize("which", ["sentiment", "all"])
def test_sentiment_experiment_without_the_stream_exits_1_before_reading(tmp_path, monkeypatch, which, capsys):
    monkeypatch.chdir(tmp_path)
    config = _run_config(tmp_path)
    parsed = _count_calls(monkeypatch, "parse_price_csv")
    before = _files(tmp_path)
    assert main(["experiment", which, "--config", str(config), "--no-sentiment"]) == 1
    assert capsys.readouterr().err == "config error: the sentiment experiment needs use_sentiment true\n"
    assert parsed == []
    assert _files(tmp_path) == before


def test_experiment_all_reads_each_input_file_once(tmp_path, monkeypatch):
    daily = trend_seasonal_daily(bars=800)
    prices, sentiment = tmp_path / "prices.csv", tmp_path / "sentiment.csv"
    _write_prices(prices, daily.bars)
    _write_sentiment(sentiment, planted_sentiment(daily))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices), "sentiment_csv": str(sentiment), "output_dir": str(tmp_path / "out"),
        "train": TINY,
        "experiments": {"seeds": [0], "window_sizes": [4],
                        "segments": [["2015-03-02", "2016-02-29"], ["2016-03-07", "2017-03-06"]]},
    }))
    parsed = _count_calls(monkeypatch, "parse_price_csv")
    scores = _count_calls(monkeypatch, "parse_sentiment_csv")
    assert main(["experiment", "all", "--config", str(config)]) == 0
    assert (len(parsed), len(scores)) == (1, 1)
    assert sorted(p.name for p in (tmp_path / "out").glob("*_report.*")) == [
        "forget_gate_report.csv", "forget_gate_report.json", "interval_report.csv", "interval_report.json",
        "regime_report.csv", "regime_report.json", "sentiment_report.csv", "sentiment_report.json",
    ]
    with open(tmp_path / "out" / "forget_gate_report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["model"], row["window"], row["seed"], row["error"]) for row in rows] == [("lstm", "4", "0", "")]
    assert 0.0 < float(rows[0]["mean_forget"]) < 1.0


def _experiment_all_config(tmp_path: Path, segments) -> Path:
    """`experiment all` on 800 daily bars with planted sentiment, a tiny
    model, two seeds, two forget-gate windows and the given segments."""
    daily = trend_seasonal_daily(bars=800)
    prices, sentiment = tmp_path / "prices.csv", tmp_path / "sentiment.csv"
    _write_prices(prices, daily.bars)
    _write_sentiment(sentiment, planted_sentiment(daily))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "price_csv": str(prices), "sentiment_csv": str(sentiment), "output_dir": str(tmp_path / "out"),
        "train": TINY, "experiments": {"seeds": [0, 1], "window_sizes": [3, 4], "segments": segments},
    }))
    return config


def test_experiment_all_writes_the_same_bytes_twice_on_the_fixed_clock(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "fixed")
    config = _experiment_all_config(tmp_path, [["2015-03-02", "2016-02-29"], ["2016-03-07", "2017-03-06"]])
    outputs = []
    for _ in range(2):
        assert main(["experiment", "all", "--config", str(config)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
    stems = ("interval", "regime", "sentiment", "forget_gate")
    assert sorted(outputs[0]) == sorted(
        ["config.json"] + [f"{s}_{kind}" for s in stems for kind in ("report.csv", "report.json", "aggregate.csv")]
    )
    assert outputs[0] == outputs[1]


def test_experiment_all_writes_the_same_bytes_on_one_cpu_and_on_three(tmp_path, monkeypatch):
    """On one usable CPU the grids run serially and fork nothing; on three,
    each grid forks two helpers. Every output byte is the same."""
    monkeypatch.setenv(cli.CLOCK_ENV, "fixed")
    config = _experiment_all_config(tmp_path, [["2015-03-02", "2016-02-29"], ["2016-03-07", "2017-03-06"]])
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    files, forked = {}, {}
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks.clear()
        assert main(["experiment", "all", "--config", str(config)]) == 0
        files[cpus] = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        forked[cpus] = len(forks)
        assert multiprocessing.active_children() == []
    assert forked == {1: 0, 3: 4 * 2}  # four grids, two helpers each
    assert files[1] == files[3]


def test_experiment_all_with_a_segment_outside_the_data_fails_before_training(tmp_path, monkeypatch, capsys):
    config = _experiment_all_config(tmp_path, [["2015-03-02", "2016-02-29"], ["2030-01-07", "2031-01-06"]])
    trained = []
    real = experiments.train
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args) or real(*args, **kwargs))
    assert main(["experiment", "all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "data error: no bars between 2030-01-07 and 2031-01-06\n"
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_experiment_sentiment_with_a_malformed_feature_csv_fails_before_training(tmp_path, monkeypatch, capsys):
    config = _experiment_all_config(tmp_path, [["2015-03-02", "2016-02-29"]])
    features = tmp_path / "features.csv"
    features.write_text("not,a,feature,header\n1,2,3,4\n")
    config.write_text(json.dumps({**json.loads(config.read_text()), "feature_csv": str(features)}))
    trained = []
    real = experiments.train
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args) or real(*args, **kwargs))
    assert main(["experiment", "sentiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("data error: unexpected header ('not', 'a', 'feature', 'header')")
    assert trained == []
    assert not (tmp_path / "out").exists()


def test_experiment_all_with_a_malformed_feature_csv_fails_before_training(tmp_path, monkeypatch, capsys):
    """With both a price and a feature CSV, the sentiment ablation would
    train on the feature CSV and the other experiments on the price CSV: one
    report set from two data sources. The config is refused before any
    input file is read, so the feature CSV's contents never matter."""
    config = _experiment_all_config(tmp_path, [["2015-03-02", "2016-02-29"], ["2016-03-07", "2017-03-06"]])
    features = tmp_path / "features.csv"
    features.write_text("not,a,feature,header\n1,2,3,4\n")
    config.write_text(json.dumps({**json.loads(config.read_text()), "feature_csv": str(features)}))
    read = []
    real_read = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda path, *args: read.append(path) or real_read(path, *args))
    trained = []
    real = experiments.train
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args) or real(*args, **kwargs))
    assert main(["experiment", "all", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "config error: experiment all reads one data source: set price_csv or feature_csv, not both\n"
    )
    assert read == [config]
    assert trained == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, experiments",
    [(("features",), {}), (("train",), {}), (("predict",), {}),
     (("experiment", "forget-gate"), {"seeds": [0], "window_sizes": [4]}),
     (("experiment", "sentiment"), {"seeds": [0]})],
    ids=["features", "train", "predict", "experiment forget-gate", "experiment sentiment"],
)
def test_every_command_on_the_neutral_fill_prints_one_warning_after_its_outputs(
    tmp_path, checkpoint_file, command, experiments, capsys
):
    config = _run_config(tmp_path, checkpoint=str(checkpoint_file), experiments=experiments)
    assert main([command[0], "--config", str(config), *command[1:]]) == 0
    assert capsys.readouterr().err == NEUTRAL_FILL_WARNING + "\n"
    with_scores = tmp_path / "sentiment.csv"
    _write_sentiment(with_scores, planted_sentiment(sine_series(bars=80)))
    config.write_text(json.dumps({**json.loads(config.read_text()), "sentiment_csv": str(with_scores)}))
    assert main([command[0], "--config", str(config), *command[1:]]) == 0
    assert capsys.readouterr().err == ""


def _train_inputs(tmp_path: Path) -> dict[str, Path]:
    """Price, sentiment and feature CSVs of one 80-bar weekly sine series."""
    series = sine_series(bars=80)
    paths = {name: tmp_path / f"{name}.csv" for name in ("price_csv", "sentiment_csv", "feature_csv")}
    _write_prices(paths["price_csv"], series.bars)
    _write_sentiment(paths["sentiment_csv"], planted_sentiment(series))
    paths["feature_csv"].write_text(feature_frame_to_csv(build_feature_frame(series)))
    return paths


@pytest.mark.parametrize("reader", ["price_csv", "sentiment_csv", "feature_csv"])
def test_a_byte_order_mark_before_the_header_changes_no_output(tmp_path, reader):
    paths = _train_inputs(tmp_path)
    keys = {"feature_csv": paths["feature_csv"]} if reader == "feature_csv" else {
        "price_csv": paths["price_csv"], "sentiment_csv": paths["sentiment_csv"],
    }
    checkpoints = []
    for run in ("plain", "bom"):
        if run == "bom":
            paths[reader].write_text("\ufeff" + paths[reader].read_text())
        config = _run_config(tmp_path, **{k: str(v) for k, v in keys.items()}, output_dir=str(tmp_path / run))
        assert main(["train", "--config", str(config)]) == 0
        checkpoints.append((tmp_path / run / "checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


@pytest.mark.parametrize("row, fields", [("2015-01-19,0.5,0.9,junk", 4), ("2015-01-19", 1)])
def test_a_sentiment_row_with_the_wrong_field_count_is_a_data_error_naming_its_line(tmp_path, row, fields, capsys):
    paths = _train_inputs(tmp_path)
    lines = paths["sentiment_csv"].read_text().splitlines()
    lines[2] = row
    paths["sentiment_csv"].write_text("\n".join(lines) + "\n")
    config = _run_config(tmp_path, sentiment_csv=str(paths["sentiment_csv"]))
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {paths['sentiment_csv']}: line 3: expected 2 fields, got {fields}\n"
    )
    assert not (tmp_path / "out").exists()


def test_no_sentiment_reads_no_sentiment_file(tmp_path, monkeypatch, capsys):
    """A sentiment file missing a joined date fails no run that drops the
    stream: its outputs match a run with no sentiment_csv at all."""
    monkeypatch.setenv("TRENDLAB_CLOCK", "fixed")
    paths = _train_inputs(tmp_path)
    lines = paths["sentiment_csv"].read_text().splitlines()
    del lines[40]  # a row inside the frame, after the indicator warm-up
    paths["sentiment_csv"].write_text("\n".join(lines) + "\n")
    outputs = []
    for run, keys in (("gap", {"sentiment_csv": str(paths["sentiment_csv"])}), ("unset", {})):
        config = _run_config(tmp_path, output_dir=str(tmp_path / run), **keys)
        assert main(["train", "--config", str(config), "--no-sentiment"]) == 0
        outputs.append([(tmp_path / run / name).read_bytes() for name in ("checkpoint.json", "metrics.json")])
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


DERIVE_DAILY = "cannot derive daily data from a weekly price_csv"


@pytest.mark.parametrize(
    "argv, keys, message",
    [
        (["train"], {"interval": "daily"}, DERIVE_DAILY),
        (["predict"], {"interval": "daily"}, DERIVE_DAILY),
        (["experiment", "regime"], {"interval": "daily"}, DERIVE_DAILY),
        (["experiment", "interval"], {}, DERIVE_DAILY),
        (["experiment", "all"], {}, DERIVE_DAILY),
        (["features", "--no-sentiment"], {}, "cannot write a feature CSV with use_sentiment false"),
        (["features"], {"use_sentiment": False}, "cannot write a feature CSV with use_sentiment false"),
    ],
    ids=["train", "predict", "experiment regime", "experiment interval", "experiment all", "features",
         "features use_sentiment key"],
)
def test_config_contradictions_exit_1_before_reading_any_file(
    tmp_path, checkpoint_file, monkeypatch, argv, keys, message, capsys
):
    monkeypatch.chdir(tmp_path)
    config = _run_config(tmp_path, checkpoint=str(checkpoint_file), **keys)
    parsed = _count_calls(monkeypatch, "parse_price_csv")
    loaded = _count_calls(monkeypatch, "load_checkpoint")
    before = _files(tmp_path)
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert (parsed, loaded) == ([], [])
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_missing_sentiment_csv_exits_1_before_any_file_is_parsed(
    tmp_path, checkpoint_file, monkeypatch, command, capsys
):
    monkeypatch.chdir(tmp_path)
    keys = {"price_interval": "daily"} if command[1:] in (("interval",), ("all",)) else {}
    config = _run_config(tmp_path, checkpoint=str(checkpoint_file), sentiment_csv="missing.csv", **keys)
    parsed = _count_calls(monkeypatch, "parse_price_csv")
    loaded = _count_calls(monkeypatch, "load_checkpoint")
    before = _files(tmp_path)
    assert main([command[0], "--config", str(config), *command[1:]]) == 1
    assert capsys.readouterr().err == "config error: sentiment_csv does not exist: missing.csv\n"
    assert (parsed, loaded) == ([], [])
    assert _files(tmp_path) == before


def test_a_feature_csv_frame_is_not_held_to_the_price_interval(tmp_path):
    paths = _train_inputs(tmp_path)
    config = _run_config(tmp_path, feature_csv=str(paths["feature_csv"]), interval="daily")
    assert main(["train", "--config", str(config)]) == 0


def test_epoch_loss_rows_read_back_to_the_run_losses(tmp_path, monkeypatch):
    runs = []
    real = cli.train
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: runs.append(real(*args, **kwargs)) or runs[-1])
    config = _run_config(tmp_path, train={**TINY, "epochs": 3})
    assert main(["train", "--config", str(config)]) == 0
    text = (tmp_path / "out" / "epoch_loss.csv").read_text()
    assert text == "epoch,train_rmse\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(runs[0].epoch_rmse))
    with open(tmp_path / "out" / "epoch_loss.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["epoch"]) for row in rows] == [0, 1, 2]
    assert tuple(float(row["train_rmse"]) for row in rows) == runs[0].epoch_rmse


@pytest.mark.parametrize(
    "args, code, stream, start",
    [
        (["--help"], 0, "stdout", "usage: trendlab"),
        (["train"], 1, "stderr", "usage error: "),
        (["train", "--config", "missing.json"], 1, "stderr", "config error: "),
    ],
    ids=["help", "no config", "missing config"],
)
def test_module_entry_point_in_a_fresh_interpreter(tmp_path, args, code, stream, start):
    """`python -m trendlab.cli` imports the package as a user's shell does,
    and keeps the exit-code contract."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "trendlab.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert getattr(done, stream).startswith(start)
    assert _files(tmp_path) == []


def test_train_writes_the_same_bytes_at_one_and_at_two_blas_threads(tmp_path):
    """`trendlab train` on the weekly paper-shaped series (831 training
    windows, 3 x 32) in fresh interpreters started with one and with two
    OpenBLAS threads: the program pins one, so every byte is the same.
    Unpinned, a GEMM over 416 or 831 columns splits differently on two
    threads, and the checkpoint's last bits differ."""
    series = paper_shaped_series(seed=0)
    _write_prices(tmp_path / "prices.csv", series.bars)
    _write_sentiment(tmp_path / "sentiment.csv", planted_sentiment(series))
    (tmp_path / "run.json").write_text(json.dumps({
        "price_csv": "../prices.csv", "sentiment_csv": "../sentiment.csv", "price_interval": "weekly",
        "interval": "weekly", "output_dir": "out", "train": {"epochs": 1},
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, cli.CLOCK_ENV: "fixed",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "trendlab.cli", "train", "--config", "../run.json"], cwd=work,
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs[threads] = done.stdout, {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}
    frame = build_feature_frame(series, sentiment_by_date=planted_sentiment(series))
    assert prepare_dataset(frame, 12).dataset.train.n_windows == 831
    assert "checkpoint.json" in outputs["1"][1]
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize(
    "key, command",
    [("price_csv", "train"), ("sentiment_csv", "train"), ("feature_csv", "train"), ("checkpoint", "predict")],
)
def test_a_directory_in_place_of_an_input_file_is_not_a_file(tmp_path, monkeypatch, key, command, capsys):
    """A path that exists but is a directory is named as such, not as
    missing, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    config = _run_config(tmp_path, **{key: "folder"})
    before = _files(tmp_path)
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {key} is not a file: folder\n"
    assert _files(tmp_path) == before
