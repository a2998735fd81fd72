"""Command-line entry point: feature building, training, prediction, and
the experiment suite, driven by a JSON run config (`experiments.RunConfig`).

Exit codes: 0 success, 1 usage/config error (an unreadable file included),
2 data error (an input file that is not UTF-8 text included), 3 numerical
divergence in `train` or `predict`; an experiment records a diverged cell
as an error row and exits 2 if it failed in every cell. Every command
validates its full configuration and inputs before writing anything, and
rejects contradictory config values before reading any file; all outputs
land under the configured output directory.
A command reads each input file once, and a command that built a frame on
the neutral sentiment fill says so after writing its outputs. Under
`TRENDLAB_CLOCK=fixed` every wall time written is 0.0 (`training.clock`).
`predict` forwards a memory cell's windows above `HALVES_ABOVE` (256)
as two contiguous halves, the second on one thread that is joined before
the command returns or raises. The halves depend on the window count alone,
so one usable CPU writes the same bytes as two, within 1e-12 of one call
over every window; every other request is one call, with its old bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import is_dataclass, replace
from datetime import date
from functools import cache
from pathlib import Path

import numpy as np

from . import forked
from .errors import ConfigError, DataError, DivergenceError, field_types
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
from .network import LSTM, NetworkParameters, forward_batch, last_step_cache
from .reports import (
    ExperimentReport,
    aggregate_report,
    aggregate_to_csv,
    report_to_csv,
    report_to_json,
    summary_table,
)
from .training import load_checkpoint, near_equal, save_checkpoint, train

EXPERIMENT_NAMES = ("interval", "regime", "sentiment", "forget-gate", "all")

NEUTRAL_FILL_WARNING = "warning: no sentiment_csv configured; the sentiment stream is the neutral fill 0.5"

# `predict` forwards a memory cell's windows above this count as two halves
# on two threads: the measured break-even of the threaded halves, not a
# memory bound (training's shards are `training.SHARD_WINDOWS`).
HALVES_ABOVE = 256


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
    """The run config in JSON file `path`. A UTF-8 byte-order mark before
    it is ignored, as the CSV readers ignore one; it is dropped after a
    plain UTF-8 decode, so a bad byte is named by its offset in the file."""
    try:
        raw = json.loads(path.read_text("utf-8").removeprefix("\ufeff"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {path}: {exc.reason} at byte {exc.start}") from None
    return _section(RunConfig, raw, "config")


def _read_input(path: Path | None, what: str) -> str:
    """The text of the input file that config key `what` names: a
    ConfigError when the key is not set or the file is missing, no regular
    file or unreadable, a DataError naming the file when it is not UTF-8."""
    if path is None:
        raise ConfigError(f"config does not set {what}")
    if not path.is_file():
        raise ConfigError(f"{what} {'is not a file' if path.exists() else 'does not exist'}: {path}")
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise ConfigError(f"{what} cannot be read: {path}: {exc.strerror}") from None


def _load_inputs(cfg: RunConfig) -> tuple[PriceSeries, dict[date, float] | None]:
    """The price series from `price_csv` and the sentiment scores by date
    from `sentiment_csv`, both files read before either is parsed. The
    scores are None when `sentiment_csv` is not set, which gives frames the
    neutral fill, and when `use_sentiment` drops the stream, so an unused
    file is neither read nor joined."""
    price_text = _read_input(cfg.price_csv, "price_csv")
    use_sentiment = cfg.sentiment_csv is not None and cfg.use_sentiment
    sentiment_text = _read_input(cfg.sentiment_csv, "sentiment_csv") if use_sentiment else None
    prices = parse_price_csv(price_text, interval=cfg.price_interval)
    if sentiment_text is None:
        return prices, None
    try:
        return prices, parse_sentiment_csv(sentiment_text)
    except DataError as exc:
        raise DataError(f"{cfg.sentiment_csv}: {exc}") from None


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
        frame = parse_feature_csv(_read_input(cfg.feature_csv, "feature_csv"))
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
    run = train(bundle.dataset, cfg.train)

    out = _prepare_out(cfg)
    checkpoint = save_checkpoint(
        run.parameters, cfg.train, bundle.price_scale,
        column_scales=bundle.column_scales, columns=bundle.columns,
    )
    (out / "checkpoint.json").write_text(checkpoint)

    epochs = range(len(run.epoch_rmse))
    (out / "epoch_loss.csv").write_text(write_csv(("epoch", "train_rmse"), (epochs, run.epoch_rmse)))

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
    text = _read_input(cfg.checkpoint, "checkpoint")
    frame = _resolve_frame(cfg)
    checkpoint = load_checkpoint(text)

    use_sentiment = checkpoint.params.shape.d_s is not None
    actual = frame_columns(frame if use_sentiment else frame.without_sentiment())
    for stream, names in checkpoint.columns.items():
        if names != actual.get(stream):
            raise DataError(
                f"frame {stream} columns {actual.get(stream)} do not match checkpoint {names}"
            )
    window = checkpoint.config.window
    streams = inference_windows(frame, window, checkpoint.column_scales, use_sentiment)
    # One call, or above HALVES_ABOVE on a memory cell two halves, the second
    # on a thread: the same bytes on one CPU or two, within 1e-12 of one call.
    predictions = _predict_windows(checkpoint.params, streams)
    prices = denormalize(predictions, checkpoint.scale)

    # One row per window, at its last row; a date is written in its ISO form
    # and None (a feature CSV has no dates) as an empty field.
    dates = frame.dates or (None,) * frame.n
    columns = (range(window - 1, frame.n), dates[window - 1 :], predictions, prices)
    header = ("window_end_row", "date", "prediction_normalized", "prediction_price")
    out = _prepare_out(cfg)
    (out / "predictions.csv").write_text(write_csv(header, columns))
    _warn_if_neutral_fill(cfg, cfg.feature_csv is None and use_sentiment)
    print(f"wrote {out / 'predictions.csv'}: {predictions.shape[0]} predictions")
    return 0


def _predict_windows(params: NetworkParameters, streams: tuple) -> np.ndarray:
    """Every window's prediction, each layer keeping one step (no backward
    pass): on 1-18 years of daily bars, full-depth shards of <= 256 windows,
    as `train` then ran them, were 4% slower, +9% RSS.

    A memory cell over more than HALVES_ABOVE windows runs as the two
    halves of `near_equal(n, 2)`: the caller forwards the first while one
    thread forwards the second, and the predictions join in window order.
    numpy drops the GIL in each GEMM and ufunc, so on a 2-core x86-64 VM
    the 3 x 32 halves beat one call by 25-44% at 327-883 windows; below
    ~170 windows, and on the tanh stack below ~700, they lose. The caller
    allocates both last-step caches, each with the scratch its forward
    writes, so the thread allocates nothing activation-sized (only numpy's
    fixed ufunc buffers) and its malloc arena stays small. The caller
    joins the thread before it returns or raises; the thread's raise is
    raised here. With one usable CPU the caller runs both halves
    in turn, with the same bytes. The halves need not give one call's bits
    (OpenBLAS picks its edge kernels by column count), only within 1e-12."""
    n, steps = streams[0].shape[:2]
    if params.shape.cell != LSTM or n <= HALVES_ABOVE:
        return forward_batch(streams, last_step_cache(params, n, steps)).predictions
    halves = [(tuple(None if s is None else s[half.start : half.stop] for s in streams),
               last_step_cache(params, len(half), steps)) for half in near_equal(n, 2)]
    if forked.usable_cpus() < 2:
        return np.concatenate([forward_batch(*half).predictions for half in halves])
    second = {}

    def run_second() -> None:
        try:
            second["predictions"] = forward_batch(*halves[1]).predictions
        except BaseException as exc:  # raised in the caller, after the join
            second["error"] = exc

    worker = threading.Thread(target=run_second, name="trendlab-predict-half")
    worker.start()
    try:
        first = forward_batch(*halves[0]).predictions
    finally:
        worker.join()
    if "error" in second:
        raise second["error"]
    return np.concatenate((first, second["predictions"]))


def cmd_experiment(cfg: RunConfig, which: str) -> int:
    # Only the sentiment ablation can run on a feature CSV; with both files
    # one report set would mix two data sources.
    if which == "all" and cfg.price_csv is not None and cfg.feature_csv is not None:
        raise ConfigError("experiment all reads one data source: set price_csv or feature_csv, not both")
    wanted = EXPERIMENT_NAMES[:-1] if which == "all" else (which,)
    if "sentiment" in wanted:
        require_sentiment_stream(cfg)

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
        reports["interval"] = run_interval_experiment(prices, cfg, sentiment)
    if "regime" in wanted:
        reports["regime"] = run_regime_experiment(series, cfg, sentiment)
    if frame is not None:
        reports["sentiment"] = run_sentiment_ablation(frame, cfg)
    if "forget-gate" in wanted:
        reports["forget-gate"] = run_forget_gate_experiment(series, cfg, sentiment)

    out = _prepare_out(cfg)
    failed = False
    for name, report in reports.items():
        stem = name.replace("-", "_")
        (out / f"{stem}_report.csv").write_text(report_to_csv(report))
        (out / f"{stem}_report.json").write_text(report_to_json(report))
        (out / f"{stem}_aggregate.csv").write_text(aggregate_to_csv(aggregate_report(report)))
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
        # mkdir would refuse the output directory only after training
        existing = next(p for p in (cfg.output_dir, *cfg.output_dir.parents) if p.is_symlink() or p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output_dir {cfg.output_dir} cannot be made: {existing} is not a directory")
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
