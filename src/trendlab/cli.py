"""Command-line entry point: feature building, training, prediction, and
the experiment suite, driven by a JSON run config (`experiments.RunConfig`).

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
divergence in `train` or `predict`; an experiment records a diverged cell
as an error row and exits 2 if it failed in every cell. Every command
validates its full configuration and inputs before writing anything, and
rejects contradictory config values before reading any file; all outputs
land under the configured output directory.
A command reads each input file once, and a command that built a frame on
the neutral sentiment fill says so after writing its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import is_dataclass, replace
from datetime import date
from functools import cache
from pathlib import Path
from typing import Callable

from .errors import ConfigError, DataError, DivergenceError, TrendlabError, field_types
from .experiments import (
    RunConfig,
    regime_segments,
    require_sentiment_stream,
    run_forget_gate_experiment,
    run_interval_experiment,
    run_regime_experiment,
    run_sentiment_ablation,
)
from .features import (
    FeatureFrame,
    build_feature_frame,
    feature_frame_to_csv,
    frame_columns,
    inference_windows,
    parse_feature_csv,
    prepare_dataset,
)
from .market_data import (
    DAILY,
    WEEKLY,
    PriceSeries,
    denormalize,
    parse_price_csv,
    parse_sentiment_csv,
    resample_weekly,
    write_csv,
)
from .network import forward_batch, last_step_cache
from .reports import (
    ExperimentReport,
    aggregate_report,
    aggregate_to_csv,
    report_to_csv,
    report_to_json,
    summary_table,
)
from .training import load_checkpoint, save_checkpoint, train

CLOCK_ENV = "TRENDLAB_CLOCK"

EXPERIMENT_NAMES = ("interval", "regime", "sentiment", "forget-gate", "all")

NEUTRAL_FILL_WARNING = "warning: no sentiment_csv configured; the sentiment stream is the neutral fill 0.5"


def _section(cls, raw, name: str):
    """`cls` built from the JSON object `raw`, one field per key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    types = field_types(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    values = dict(raw)
    for key, value in raw.items():
        if is_dataclass(types[key]):  # a null section takes every default
            values[key] = _section(types[key], {} if value is None else value, key)
    return cls(**values)


def load_run_config(path: Path) -> RunConfig:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _section(RunConfig, raw, "config")


def _require_file(path: Path | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"config does not set {what}")
    if not path.is_file():
        raise ConfigError(f"{what} {'is not a file' if path.exists() else 'does not exist'}: {path}")
    return path


def _timer() -> Callable[[], float]:
    if os.environ.get(CLOCK_ENV, "").lower() == "fixed":
        return lambda: 0.0
    return time.perf_counter


def _load_inputs(cfg: RunConfig) -> tuple[PriceSeries, dict[date, float] | None]:
    """The price series from `price_csv` and the sentiment scores by date
    from `sentiment_csv`, each file checked to exist before either is read.
    The scores are None when `sentiment_csv` is not set, which gives frames
    the neutral fill, and when `use_sentiment` drops the stream, so an
    unused file is neither read nor joined."""
    price_path = _require_file(cfg.price_csv, "price_csv")
    sentiment_path = None
    if cfg.sentiment_csv is not None and cfg.use_sentiment:
        sentiment_path = _require_file(cfg.sentiment_csv, "sentiment_csv")
    prices = parse_price_csv(price_path.read_text(), interval=cfg.price_interval)
    if sentiment_path is None:
        return prices, None
    try:
        return prices, parse_sentiment_csv(sentiment_path.read_text())
    except DataError as exc:
        raise DataError(f"{sentiment_path}: {exc}") from None


def _require_derivable(cfg: RunConfig, interval: str) -> None:
    """A config error, raised before any file is read, when a series at
    `interval` cannot come from `price_csv`: daily bars need a daily file."""
    if interval == DAILY and cfg.price_interval == WEEKLY:
        raise ConfigError("cannot derive daily data from a weekly price_csv")


def _at_interval(series: PriceSeries, interval: str) -> PriceSeries:
    return series if series.interval == interval else resample_weekly(series)


def _resolve_frame(cfg: RunConfig, inputs: tuple[PriceSeries, dict | None] | None = None) -> FeatureFrame:
    """The raw feature frame: the feature CSV when one is configured, else
    built from the price series at the pipeline interval and the sentiment
    scores, either `inputs` or read here. Drops the sentiment stream when
    `use_sentiment` is false."""
    if cfg.feature_csv is not None:
        frame = parse_feature_csv(_require_file(cfg.feature_csv, "feature_csv").read_text())
    else:
        if inputs is None:
            _require_derivable(cfg, cfg.interval)
            prices, sentiment = _load_inputs(cfg)
            inputs = _at_interval(prices, cfg.interval), sentiment
        frame = build_feature_frame(inputs[0], cfg.indicators, inputs[1])
    return frame if cfg.use_sentiment else frame.without_sentiment()


def _warn_if_neutral_fill(cfg: RunConfig, built: bool) -> None:
    """Warn when a sentiment stream was `built` from the price series alone."""
    if built and cfg.use_sentiment and cfg.sentiment_csv is None:
        print(NEUTRAL_FILL_WARNING, file=sys.stderr)


def _prepare_out(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "config.json").write_text(cfg.echo())
    return cfg.output_dir


def cmd_features(cfg: RunConfig) -> int:
    if not cfg.use_sentiment:
        raise ConfigError("cannot write a feature CSV with use_sentiment false")
    frame = _resolve_frame(cfg)
    text = feature_frame_to_csv(frame)
    out = _prepare_out(cfg)
    (out / "features.csv").write_text(text)
    _warn_if_neutral_fill(cfg, cfg.feature_csv is None)
    trimmed = f" ({cfg.indicators.warmup + 1} warm-up rows trimmed)" if cfg.feature_csv is None else ""
    print(f"wrote {out / 'features.csv'}: {frame.n} rows{trimmed}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    frame = _resolve_frame(cfg)
    bundle = prepare_dataset(frame, cfg.train.window, scale_fit=cfg.scale_fit)
    timer = _timer()
    run = train(bundle.dataset, cfg.train, timer=timer)

    out = _prepare_out(cfg)
    checkpoint = save_checkpoint(
        run.parameters, run.config, bundle.price_scale,
        column_scales=bundle.column_scales, columns=bundle.columns,
    )
    (out / "checkpoint.json").write_text(checkpoint)

    (out / "epoch_loss.csv").write_text(write_csv(("epoch", "train_rmse"), enumerate(run.epoch_rmse)))

    metrics = {
        "train_rmse": run.train_rmse,
        "test_rmse": run.test_rmse,
        "test_rmse_price_units": None
        if run.test_rmse is None
        else run.test_rmse * (bundle.price_scale.max - bundle.price_scale.min) / 2.0,
        "epochs": cfg.train.epochs,
        "n_train_windows": bundle.dataset.split_index,
        "n_test_windows": bundle.dataset.n_windows - bundle.dataset.split_index,
        "wall_seconds": run.wall_seconds,
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    _warn_if_neutral_fill(cfg, cfg.feature_csv is None)
    test_part = "n/a" if run.test_rmse is None else f"{run.test_rmse:.6f}"
    print(f"train RMSE {run.train_rmse:.6f}, test RMSE {test_part} (normalized units)")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    path = _require_file(cfg.checkpoint, "checkpoint")
    frame = _resolve_frame(cfg)
    checkpoint = load_checkpoint(path.read_text())

    use_sentiment = checkpoint.params.shape.d_s is not None
    actual = frame_columns(frame if use_sentiment else frame.without_sentiment())
    for stream, names in checkpoint.columns.items():
        if names != actual.get(stream):
            raise DataError(
                f"frame {stream} columns {actual.get(stream)} do not match checkpoint {names}"
            )
    window = checkpoint.config.window
    streams = inference_windows(frame, window, checkpoint.column_scales, use_sentiment)
    # Each layer keeps one step (no backward pass): on 1-18 years of daily bars,
    # full-depth shards of <= 256 windows, as `train` runs, were 4% slower, +9% RSS.
    cache = forward_batch(streams, last_step_cache(checkpoint.params, *streams[0].shape[:2]))
    prices = denormalize(cache.predictions, checkpoint.scale)

    # One row per window, at its last row; `csv` writes a date in its ISO
    # form and None (a feature CSV has no dates) as an empty field.
    dates = frame.dates or (None,) * frame.n
    rows = zip(range(window - 1, frame.n), dates[window - 1 :], cache.predictions.tolist(), prices.tolist())
    header = ("window_end_row", "date", "prediction_normalized", "prediction_price")
    out = _prepare_out(cfg)
    (out / "predictions.csv").write_text(write_csv(header, rows))
    _warn_if_neutral_fill(cfg, cfg.feature_csv is None and use_sentiment)
    print(f"wrote {out / 'predictions.csv'}: {cache.predictions.shape[0]} predictions")
    return 0


def cmd_experiment(cfg: RunConfig, which: str) -> int:
    # Only the sentiment ablation can run on a feature CSV; with both files
    # one report set would mix two data sources.
    if which == "all" and cfg.price_csv is not None and cfg.feature_csv is not None:
        raise ConfigError("experiment all reads one data source: set price_csv or feature_csv, not both")
    wanted = EXPERIMENT_NAMES[:-1] if which == "all" else (which,)
    if "sentiment" in wanted:
        require_sentiment_stream(cfg)
    timer = _timer()

    # Every experiment but a sentiment ablation on a feature CSV builds its
    # frames from the price series; the interval experiment resamples it itself.
    prices = series = sentiment = None
    if wanted != ("sentiment",) or cfg.feature_csv is None:
        _require_derivable(cfg, DAILY if "interval" in wanted else cfg.interval)
        prices, sentiment = _load_inputs(cfg)
        series = prices if wanted == ("interval",) else _at_interval(prices, cfg.interval)

    # A bad segment or ablation frame fails here, before any cell trains.
    if "regime" in wanted:
        regime_segments(series, cfg)
    frame = _resolve_frame(cfg, (series, sentiment)) if "sentiment" in wanted else None

    reports: dict[str, ExperimentReport] = {}
    if "interval" in wanted:
        reports["interval"] = run_interval_experiment(prices, cfg, sentiment, timer=timer)
    if "regime" in wanted:
        reports["regime"] = run_regime_experiment(series, cfg, sentiment, timer=timer)
    if frame is not None:
        reports["sentiment"] = run_sentiment_ablation(frame, cfg, timer=timer)
    if "forget-gate" in wanted:
        reports["forget-gate"] = run_forget_gate_experiment(series, cfg, sentiment, timer=timer)

    out = _prepare_out(cfg)
    failed = False
    for name, report in reports.items():
        stem = name.replace("-", "_")
        (out / f"{stem}_report.csv").write_text(report_to_csv(report))
        (out / f"{stem}_report.json").write_text(report_to_json(report))
        (out / f"{stem}_aggregate.csv").write_text(aggregate_to_csv(aggregate_report([report])))
        print(f"== {name} experiment")
        print(summary_table(report))
        failed = failed or report.all_failed
    if failed:
        print("error: an experiment failed in every cell", file=sys.stderr)
    _warn_if_neutral_fill(cfg, prices is not None)
    return 2 if failed else 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, per contract
        raise _UsageError(message)


# (flag, config field it overrides, argparse options); the help text
# defaults to "override <field>".
_OVERRIDES = (
    ("--seed", "train.seed", {"type": int}),
    ("--out", "output_dir", {}),
    ("--epochs", "train.epochs", {"type": int}),
    ("--lr", "train.learning_rate", {"type": float}),
    ("--layers", "train.layers", {"type": int}),
    ("--window", "train.window", {"type": int}),
    ("--interval", "interval", {"choices": (DAILY, WEEKLY), "help": "override pipeline interval"}),
    ("--no-sentiment", "use_sentiment",
     {"action": "store_const", "const": False, "help": "drop the sentiment stream"}),
    ("--checkpoint", "checkpoint", {"help": "override config checkpoint path"}),
)
_PREDICT_ONLY = ("--checkpoint",)

_COMMANDS = {
    "features": "write the feature CSV",
    "train": "train a model and write a checkpoint",
    "predict": "predict from a checkpoint",
    "experiment": "run an experiment suite",
}


@cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trendlab",
        description="Market trend forecasting pipeline: features, training, prediction, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        for flag, target, options in _OVERRIDES:
            if command == "predict" or flag not in _PREDICT_ONLY:
                p.add_argument(flag, **{"help": f"override {target}", **options})
        if command == "experiment":
            p.add_argument("which", choices=EXPERIMENT_NAMES)
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """`cfg` with every given flag applied, validated like a file value."""
    updates: dict[str, dict] = {}
    for flag, target, _ in _OVERRIDES:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            section, _, name = target.rpartition(".")
            updates.setdefault(section, {})[name] = value
    top = updates.pop("", {})
    sections = {name: replace(getattr(cfg, name), **fields) for name, fields in updates.items()}
    return replace(cfg, **sections, **top)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        cfg = _apply_overrides(load_run_config(Path(args.config)), args)
        if args.command == "features":
            return cmd_features(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        return cmd_experiment(cfg, args.which)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrendlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
