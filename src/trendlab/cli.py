"""Command-line entry point: feature building, training, prediction, and
the experiment suite, driven by a JSON config file.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
divergence. Every command validates its full configuration and inputs
before writing anything; all outputs land under the configured output
directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, TrendlabError
from .experiments import (
    PAPER_SEGMENTS,
    ExperimentConfig,
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
from .indicators import IndicatorConfig
from .market_data import DAILY, WEEKLY, denormalize, parse_price_csv, resample_weekly
from .network import forward_batch
from .reports import (
    ExperimentReport,
    aggregate_report,
    aggregate_to_csv,
    forget_report_to_csv,
    report_to_csv,
    report_to_json,
    summary_table,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

THREADS_ENV = "TRENDLAB_THREADS"
CLOCK_ENV = "TRENDLAB_CLOCK"

EXPERIMENT_NAMES = ("interval", "regime", "sentiment", "forget-gate", "all")

_CONFIG_KEYS = {
    "price_csv", "sentiment_csv", "feature_csv", "checkpoint", "symbol",
    "interval", "price_interval", "use_sentiment", "scale_fit", "output_dir",
    "indicators", "train", "experiments",
}
_EXPERIMENT_KEYS = {"seeds", "segments", "window_sizes", "regime_threshold"}


@dataclass(frozen=True)
class RunConfig:
    price_csv: Path | None
    sentiment_csv: Path | None
    feature_csv: Path | None
    checkpoint: Path | None
    symbol: str
    interval: str
    price_interval: str
    use_sentiment: bool
    scale_fit: str
    output_dir: Path
    indicators: IndicatorConfig
    train: TrainConfig
    seeds: tuple[int, ...]
    segments: tuple[tuple[date, date], ...]
    window_sizes: tuple[int, ...]
    regime_threshold: float

    def echo(self) -> str:
        doc = {
            "price_csv": None if self.price_csv is None else str(self.price_csv),
            "sentiment_csv": None if self.sentiment_csv is None else str(self.sentiment_csv),
            "feature_csv": None if self.feature_csv is None else str(self.feature_csv),
            "checkpoint": None if self.checkpoint is None else str(self.checkpoint),
            "symbol": self.symbol,
            "interval": self.interval,
            "price_interval": self.price_interval,
            "use_sentiment": self.use_sentiment,
            "scale_fit": self.scale_fit,
            "output_dir": str(self.output_dir),
            "indicators": self.indicators.__dict__,
            "train": self.train.__dict__,
            "experiments": {
                "seeds": list(self.seeds),
                "segments": [[s.isoformat(), e.isoformat()] for s, e in self.segments],
                "window_sizes": list(self.window_sizes),
                "regime_threshold": self.regime_threshold,
            },
        }
        return json.dumps(doc, indent=1) + "\n"


def _parse_segments(raw) -> tuple[tuple[date, date], ...]:
    segments = []
    for item in raw:
        try:
            if isinstance(item, dict):
                start, end = item["start"], item["end"]
            else:
                start, end = item
            segments.append((date.fromisoformat(start), date.fromisoformat(end)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed segment {item!r}: {exc}") from None
    return tuple(segments)


def load_run_config(path: Path) -> RunConfig:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    exp = raw.get("experiments", {}) or {}
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown experiments keys: {sorted(unknown)}")

    def path_or_none(key: str) -> Path | None:
        value = raw.get(key)
        return None if value is None else Path(value)

    try:
        indicators = IndicatorConfig(**(raw.get("indicators", {}) or {}))
        train_config = TrainConfig(**(raw.get("train", {}) or {}))
    except TypeError as exc:
        raise ConfigError(f"bad config section: {exc}") from None

    interval = raw.get("interval", WEEKLY)
    price_interval = raw.get("price_interval", DAILY)
    for name, value in (("interval", interval), ("price_interval", price_interval)):
        if value not in (DAILY, WEEKLY):
            raise ConfigError(f"{name} must be 'daily' or 'weekly', got {value!r}")
    scale_fit = raw.get("scale_fit", "train")
    if scale_fit not in ("train", "full"):
        raise ConfigError(f"scale_fit must be 'train' or 'full', got {scale_fit!r}")

    seeds = tuple(int(s) for s in exp.get("seeds", (0, 1, 2)))
    if not seeds:
        raise ConfigError("experiments.seeds must be non-empty")
    window_sizes = tuple(int(w) for w in exp.get("window_sizes", (4, 8, 16)))
    if any(w < 1 for w in window_sizes):
        raise ConfigError("experiments.window_sizes must be positive")
    segments = _parse_segments(exp["segments"]) if "segments" in exp else PAPER_SEGMENTS

    return RunConfig(
        price_csv=path_or_none("price_csv"),
        sentiment_csv=path_or_none("sentiment_csv"),
        feature_csv=path_or_none("feature_csv"),
        checkpoint=path_or_none("checkpoint"),
        symbol=str(raw.get("symbol", "series")),
        interval=interval,
        price_interval=price_interval,
        use_sentiment=bool(raw.get("use_sentiment", True)),
        scale_fit=scale_fit,
        output_dir=Path(raw.get("output_dir", "out")),
        indicators=indicators,
        train=train_config,
        seeds=seeds,
        segments=segments,
        window_sizes=window_sizes,
        regime_threshold=float(exp.get("regime_threshold", 0.15)),
    )


def _require_file(path: Path | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"config does not set {what}")
    if not path.is_file():
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _timer() -> Callable[[], float]:
    if os.environ.get(CLOCK_ENV, "").lower() == "fixed":
        return lambda: 0.0
    return time.perf_counter


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(value, 0)


def _load_sentiment(path: Path) -> dict[date, float]:
    reader = csv.reader(io.StringIO(path.read_text()))
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise DataError(f"{path}: empty sentiment file") from None
    if header != ("Date", "Sentiment"):
        raise DataError(f"{path}: sentiment header must be 'Date,Sentiment', got {header!r}")
    scores: dict[date, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            when = date.fromisoformat(row[0].strip())
            value = float(row[1])
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: malformed row: {exc}") from None
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path} line {lineno}: sentiment {value} outside [0, 1]")
        if when in scores:
            raise DataError(f"{path} line {lineno}: duplicate date {when}")
        scores[when] = value
    if not scores:
        raise DataError(f"{path}: no sentiment rows")
    return scores


def _load_series(cfg: RunConfig, interval: str):
    path = _require_file(cfg.price_csv, "price_csv")
    series = parse_price_csv(path.read_text(), symbol=cfg.symbol, interval=cfg.price_interval)
    if cfg.price_interval == interval:
        return series
    if cfg.price_interval == DAILY and interval == WEEKLY:
        return resample_weekly(series)
    raise ConfigError("cannot derive daily data from a weekly price_csv")


def _resolve_frame(cfg: RunConfig) -> tuple[FeatureFrame, bool]:
    """Build or load the raw feature frame; returns (frame, used_neutral)."""
    if cfg.feature_csv is not None:
        frame = parse_feature_csv(_require_file(cfg.feature_csv, "feature_csv").read_text())
        if not cfg.use_sentiment:
            frame = frame.without_sentiment()
        return frame, False
    series = _load_series(cfg, cfg.interval)
    sentiment = None
    used_neutral = False
    if cfg.sentiment_csv is not None:
        sentiment = _load_sentiment(_require_file(cfg.sentiment_csv, "sentiment_csv"))
    else:
        used_neutral = True
    frame = build_feature_frame(series, cfg.indicators, sentiment)
    if not cfg.use_sentiment:
        frame = frame.without_sentiment()
        used_neutral = False
    return frame, used_neutral


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _prepare_out(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write(cfg.output_dir / "config.json", cfg.echo())
    return cfg.output_dir


def cmd_features(cfg: RunConfig) -> int:
    frame, used_neutral = _resolve_frame(cfg)
    if frame.sentiment is None:
        raise ConfigError("cannot write a feature CSV with --no-sentiment")
    text = feature_frame_to_csv(frame)
    out = _prepare_out(cfg)
    _write(out / "features.csv", text)
    if used_neutral:
        print(
            "warning: no sentiment source configured; filled the Sentiment "
            "column with the neutral 0.5",
            file=sys.stderr,
        )
    if cfg.feature_csv is None:
        trimmed = cfg.indicators.warmup + 1
        print(f"wrote {out / 'features.csv'}: {frame.n} rows ({trimmed} warm-up rows trimmed)")
    else:
        print(f"wrote {out / 'features.csv'}: {frame.n} rows")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    frame, used_neutral = _resolve_frame(cfg)
    bundle = prepare_dataset(frame, cfg.train.window, scale_fit=cfg.scale_fit)
    timer = _timer()
    run = train(bundle.dataset, cfg.train, timer=timer)

    out = _prepare_out(cfg)
    checkpoint = save_checkpoint(
        run.parameters, run.config, bundle.price_scale,
        column_scales=bundle.column_scales, columns=bundle.columns,
    )
    _write(out / "checkpoint.json", checkpoint)

    loss = io.StringIO()
    writer = csv.writer(loss, lineterminator="\n")
    writer.writerow(("epoch", "train_rmse"))
    for epoch, value in enumerate(run.epoch_rmse):
        writer.writerow((epoch, repr(value)))
    _write(out / "epoch_loss.csv", loss.getvalue())

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
    _write(out / "metrics.json", json.dumps(metrics, indent=1) + "\n")
    if used_neutral:
        print("warning: trained with the neutral sentiment fill", file=sys.stderr)
    test_part = "n/a" if run.test_rmse is None else f"{run.test_rmse:.6f}"
    print(f"train RMSE {run.train_rmse:.6f}, test RMSE {test_part} (normalized units)")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    text = _require_file(cfg.checkpoint, "checkpoint").read_text()
    checkpoint = load_checkpoint(text)
    frame, _ = _resolve_frame(cfg)

    use_sentiment = checkpoint.params.fusion.has_sentiment
    actual = frame_columns(frame if use_sentiment else frame.without_sentiment())
    for stream, names in (checkpoint.columns or {}).items():
        if names != actual.get(stream):
            raise DataError(
                f"frame {stream} columns {actual.get(stream)} do not match checkpoint {names}"
            )
    window = checkpoint.config.window
    streams = inference_windows(frame, window, checkpoint.column_scales, use_sentiment)
    cache = forward_batch(streams, checkpoint.params)
    prices = denormalize(cache.predictions, checkpoint.scale)

    out = _prepare_out(cfg)
    pred = io.StringIO()
    writer = csv.writer(pred, lineterminator="\n")
    writer.writerow(("window_end_row", "date", "prediction_normalized", "prediction_price"))
    for k in range(cache.predictions.shape[0]):
        end_row = k + window - 1
        when = frame.dates[end_row].isoformat() if frame.dates is not None else ""
        writer.writerow((end_row, when, repr(float(cache.predictions[k])), repr(float(prices[k]))))
    _write(out / "predictions.csv", pred.getvalue())
    print(f"wrote {out / 'predictions.csv'}: {cache.predictions.shape[0]} predictions")
    return 0


def _experiment_config(cfg: RunConfig) -> ExperimentConfig:
    return ExperimentConfig(
        train=cfg.train,
        indicators=cfg.indicators,
        seeds=cfg.seeds,
        scale_fit=cfg.scale_fit,
        regime_threshold=cfg.regime_threshold,
        workers=_workers(),
    )


def cmd_experiment(cfg: RunConfig, which: str) -> int:
    wanted = EXPERIMENT_NAMES[:-1] if which == "all" else (which,)
    exp_config = _experiment_config(cfg)
    timer = _timer()

    sentiment = None
    if cfg.sentiment_csv is not None:
        sentiment = _load_sentiment(_require_file(cfg.sentiment_csv, "sentiment_csv"))

    reports: dict[str, ExperimentReport] = {}
    forget = None
    if "interval" in wanted:
        daily = _load_series(cfg, DAILY)
        reports["interval"] = run_interval_experiment(daily, exp_config, sentiment, timer=timer)
    if "regime" in wanted:
        series = _load_series(cfg, cfg.interval)
        reports["regime"] = run_regime_experiment(series, cfg.segments, exp_config, sentiment, timer=timer)
    if "sentiment" in wanted:
        frame, used_neutral = _resolve_frame(cfg)
        if used_neutral:
            print(
                "warning: sentiment ablation running on the neutral fill; "
                "provide sentiment_csv for a meaningful comparison",
                file=sys.stderr,
            )
        reports["sentiment"] = run_sentiment_ablation(frame, exp_config, interval=cfg.interval, timer=timer)
    if "forget-gate" in wanted:
        series = _load_series(cfg, cfg.interval)
        forget = run_forget_gate_experiment(series, cfg.window_sizes, exp_config, sentiment, timer=timer)

    out = _prepare_out(cfg)
    failed = False
    for name, report in reports.items():
        _write(out / f"{name}_report.csv", report_to_csv(report))
        _write(out / f"{name}_report.json", report_to_json(report))
        _write(out / f"{name}_aggregate.csv", aggregate_to_csv(aggregate_report([report])))
        print(f"== {name} experiment")
        print(summary_table(report))
        failed = failed or report.all_failed
    if forget is not None:
        _write(out / "forget_gate_report.csv", forget_report_to_csv(forget))
        print("== forget-gate experiment")
        for row in forget.rows:
            print(f"window {row.window:>3}  seed {row.seed}  mean forget {row.mean_forget:.4f}")
    if failed:
        print("error: an experiment failed in every cell", file=sys.stderr)
        return 2
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, per contract
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trendlab",
        description="Market trend forecasting pipeline: features, training, prediction, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--out", help="override output_dir")
        p.add_argument("--epochs", type=int, help="override train.epochs")
        p.add_argument("--lr", type=float, help="override train.learning_rate")
        p.add_argument("--layers", type=int, help="override train.layers")
        p.add_argument("--window", type=int, help="override train.window")
        p.add_argument("--interval", choices=(DAILY, WEEKLY), help="override pipeline interval")
        p.add_argument("--no-sentiment", action="store_true", help="drop the sentiment stream")

    p_features = sub.add_parser("features", help="write the feature CSV")
    common(p_features)
    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p_train)
    p_predict = sub.add_parser("predict", help="predict from a checkpoint")
    common(p_predict)
    p_predict.add_argument("--checkpoint", help="override config checkpoint path")
    p_exp = sub.add_parser("experiment", help="run an experiment suite")
    common(p_exp)
    p_exp.add_argument("which", choices=EXPERIMENT_NAMES)
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    train_config = cfg.train
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.epochs is not None:
        updates["epochs"] = args.epochs
    if args.lr is not None:
        updates["learning_rate"] = args.lr
    if args.layers is not None:
        updates["layers"] = args.layers
    if args.window is not None:
        updates["window"] = args.window
    if updates:
        train_config = replace(train_config, **updates)
    cfg = replace(cfg, train=train_config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=Path(args.out))
    if args.interval is not None:
        cfg = replace(cfg, interval=args.interval)
    if args.no_sentiment:
        cfg = replace(cfg, use_sentiment=False)
    if getattr(args, "checkpoint", None) is not None:
        cfg = replace(cfg, checkpoint=Path(args.checkpoint))
    return cfg


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
