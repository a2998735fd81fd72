"""The run config, market-regime segmentation, and the experiment runners:
interval comparison, regime comparison, sentiment ablation, and forget-gate
analysis.

Every runner is a pure function of (data, `RunConfig`) and reads every
setting from the config: identical inputs produce identical reports. All
four build one grid of cells, preparing each data variant (interval,
segment, feature set, or window size) once and sharing that read-only bundle
across the variant's (model, seed) cells. One failure policy: a variant that
cannot be prepared, or a cell that fails or diverges, becomes error rows and
the other cells still run. The cells run in processes, one per usable CPU:
the caller's own and forked helpers (see `_run_cells`), each of which
inherits the caller's BLAS thread count, one (see `trendlab.blas`), so the
processes do not oversubscribe the cores with BLAS threads. Threads would
not help: each cell issues thousands of microsecond-scale numpy calls that
drop and retake the GIL, so threads would spend their time handing it back
and forth. Rows come back in grid order and are bit-equal to a serial run's.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from datetime import date
from enum import Enum
from functools import cache, partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import forked
from .errors import ConfigError, DataError, TrendlabError, enforce_field_types, require_finite
from .features import DatasetBundle, FeatureFrame, build_feature_frame, prepare_dataset
from .indicators import IndicatorConfig
from .market_data import DAILY, WEEKLY, PriceSeries, fit_scale, normalize, resample_weekly
from .network import LSTM, RNN
from .reports import ExperimentReport, ReportRow
from .training import TrainConfig, train

MODELS = (LSTM, RNN)
FULL_FEATURES = "full"
NO_SENTIMENT = "no-sentiment"
ALL_REGIMES = "all"


class RegimeLabel(str, Enum):
    BULL = "bull"
    BEAR = "bear"
    FLAT = "flat"


# Two-year study segments: a declining, a sideways, and a rising stretch.
PAPER_SEGMENTS: tuple[tuple[date, date], ...] = (
    (date(2000, 2, 1), date(2002, 1, 31)),
    (date(2004, 9, 1), date(2006, 8, 31)),
    (date(2013, 8, 1), date(2015, 7, 31)),
)

SEGMENT_LENGTH_TOLERANCE_DAYS = 7


@dataclass(frozen=True)
class ExperimentsSection:
    """The experiment settings: the `experiments` section of a run config."""

    seeds: tuple[int, ...] = (0, 1, 2)
    segments: tuple[tuple[date, date], ...] = PAPER_SEGMENTS
    window_sizes: tuple[int, ...] = (4, 8, 16)
    regime_threshold: float = 0.15

    def __post_init__(self):
        enforce_field_types(self)
        require_finite(self)
        if self.regime_threshold < 0:
            raise ConfigError(f"experiments.regime_threshold must be non-negative, got {self.regime_threshold}")
        for name in ("seeds", "window_sizes", "segments"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"experiments.{name} must be non-empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"experiments.{name} must not repeat an entry")
        if min(self.seeds) < 0:
            raise ConfigError(f"experiments.seeds must be non-negative, got {list(self.seeds)}")
        if min(self.window_sizes) < 1:
            raise ConfigError("experiments.window_sizes must be positive")
        spans = [(end - start).days for start, end in self.segments]
        if min(spans) <= 0:
            raise ConfigError("experiments.segments: each segment's end must follow its start")
        if max(spans) - min(spans) > SEGMENT_LENGTH_TOLERANCE_DAYS:
            raise ConfigError(
                f"experiments.segments must cover equal periods (within {SEGMENT_LENGTH_TOLERANCE_DAYS} days); "
                f"got spans of {sorted(set(spans))} days"
            )


@dataclass(frozen=True)
class RunConfig:
    """A run config file: one field per key, in the order `config.json`
    echoes them, each with the value a missing key takes."""

    price_csv: Path | None = None
    sentiment_csv: Path | None = None
    feature_csv: Path | None = None
    checkpoint: Path | None = None
    symbol: str = "series"
    interval: str = WEEKLY
    price_interval: str = DAILY
    use_sentiment: bool = True
    scale_fit: str = "train"
    output_dir: Path = Path("out")
    indicators: IndicatorConfig = IndicatorConfig()
    train: TrainConfig = TrainConfig()
    experiments: ExperimentsSection = ExperimentsSection()

    def __post_init__(self):
        enforce_field_types(self)
        for name in ("interval", "price_interval"):
            value = getattr(self, name)
            if value not in (DAILY, WEEKLY):
                raise ConfigError(f"{name} must be 'daily' or 'weekly', got {value!r}")
        if self.scale_fit not in ("train", "full"):
            raise ConfigError(f"scale_fit must be 'train' or 'full', got {self.scale_fit!r}")

    def echo(self) -> str:
        return json.dumps(asdict(self), indent=1, default=str) + "\n"


def classify_regime(segment: PriceSeries, threshold: float = 0.15) -> RegimeLabel:
    """Label a segment bull, bear, or flat by the least-squares slope of its
    normalized adjusted price, measured in normalized units over the whole
    segment span.
    """
    if len(segment) < 8:
        raise DataError(f"segment too short to classify: {len(segment)} bars")
    adjusted = segment.adjusted()
    if adjusted.max() == adjusted.min():
        return RegimeLabel.FLAT
    values = normalize(adjusted, fit_scale(segment))
    t = np.arange(values.size, dtype=np.float64)
    t_centered = t - t.mean()
    slope = float(t_centered @ (values - values.mean()) / (t_centered @ t_centered))
    span_slope = slope * (values.size - 1)
    if span_slope > threshold:
        return RegimeLabel.BULL
    if span_slope < -threshold:
        return RegimeLabel.BEAR
    return RegimeLabel.FLAT


# A grid variant: its report labels (interval, regime, features), the window
# its cells train on, and a builder for its feature frame.
_Variant = tuple[str, str, str, int, Callable[[], FeatureFrame]]


def _run_cells(tasks: Sequence[Callable[[], ReportRow]]) -> list[ReportRow]:
    """Run every task and return the rows in task order.

    The caller's process and `forked.helper_count(tasks)` helpers each take
    the next unclaimed task index from one shared counter until none is
    left; with one usable CPU or one task no helper starts, and the caller
    runs the same loop alone. A helper inherits the tasks and their shared
    read-only bundles through the fork, and only its `(index, row)` results
    cross back. The caller runs cells too, so no CPU idles while it waits,
    and a wrapper that counts calls in this process still sees the caller's
    share. Each helper inherits the caller's BLAS thread count, one (see
    `trendlab.blas`), so every cell's bits equal the serial run's. A cell
    trains its shards serially (see `training.train`), so a helper forks
    nothing further.

    A cell that raises anywhere stops the hand-out of further cells; the
    failure rules of `trendlab.forked` apply, so every helper is joined
    before `_run_cells` raises.
    """
    cells = _Cells(tasks, forked.shared_counter())
    with forked.Helpers("experiment") as helpers:
        try:
            for _ in range(forked.helper_count(len(tasks))):
                helpers.start(lambda conn: conn.send(cells.run()))
            done = cells.run()
        except BaseException:
            cells.stop()  # `cells.run` stops on its own failure; this covers a helper that failed to start
            raise
        for helper in helpers.started:
            done += helper.recv("its cells")
    rows: list[ReportRow | None] = [None] * len(tasks)
    for k, row in done:
        rows[k] = row
    return rows


class _Cells:
    """Task indices handed out from a counter shared with forked helpers."""

    def __init__(self, tasks: Sequence[Callable[[], ReportRow]], counter):
        self.tasks = tasks
        self._next = counter

    def run(self) -> list[tuple[int, ReportRow]]:
        """Claim and run cells until none is left; a failure stops the hand-out."""
        done = []
        try:
            while (k := self._claim()) < len(self.tasks):
                done.append((k, self.tasks[k]()))
        except BaseException:
            self.stop()
            raise
        return done

    def _claim(self) -> int:
        with self._next.get_lock():
            k = self._next.value
            self._next.value = k + 1
        return k

    def stop(self) -> None:
        with self._next.get_lock():
            self._next.value = len(self.tasks)


def _error_text(exc: Exception) -> str:
    """A failed cell's error: a TrendlabError's own message, or the
    exception type and message for a ValueError raised below the package's
    checks. Any other exception is a bug and propagates."""
    return str(exc) if isinstance(exc, TrendlabError) else f"{type(exc).__name__}: {exc}"


def _cell(
    prepared: DatasetBundle | str,
    row: ReportRow,
    config: RunConfig,
    timer: Callable[[], float],
) -> ReportRow:
    """Train one (model, seed) cell on its variant's shared bundle.
    `prepared` is the error text when the variant could not be prepared."""
    if isinstance(prepared, str):
        return replace(row, error=prepared)
    train_config = replace(config.train, cell=row.model, seed=row.seed, window=row.window)
    started = timer()
    try:
        run = train(prepared.dataset, train_config, timer=timer, fork_helpers=False)
    except (TrendlabError, ValueError) as exc:
        return replace(row, error=_error_text(exc))
    wall_ms = (timer() - started) * 1000.0
    mean_forget = math.nan if run.test_mean_forget is None else run.test_mean_forget
    return replace(row, train_rmse=run.train_rmse, test_rmse=run.test_rmse, mean_forget=mean_forget, wall_ms=wall_ms)


def _run_grid(
    variants: Sequence[_Variant],
    config: RunConfig,
    timer: Callable[[], float],
    models: Sequence[str] = MODELS,
) -> ExperimentReport:
    """One row per (variant, model, seed), in that order. Each variant is
    prepared once, before the cells; `train` only reads the bundle, so its
    cells share it. A variant without test windows trains no cell."""
    tasks = []
    for interval, regime, features, window, make_frame in variants:
        try:
            prepared = prepare_dataset(make_frame(), window, scale_fit=config.scale_fit)
            if prepared.dataset.test.n_windows == 0:
                raise DataError("experiment dataset produced an empty test split")
        except (TrendlabError, ValueError) as exc:
            prepared = _error_text(exc)
        for model in models:
            for seed in config.experiments.seeds:
                row = ReportRow(
                    model=model, interval=interval, regime=regime, features=features, window=window,
                    seed=seed, train_rmse=math.nan, test_rmse=math.nan, mean_forget=math.nan, wall_ms=math.nan,
                )
                tasks.append(partial(_cell, prepared, row, config, timer))
    return ExperimentReport(rows=tuple(_run_cells(tasks)))


def _series_frame(series: PriceSeries, config: RunConfig, sentiment: Mapping[date, float] | None) -> FeatureFrame:
    """The feature frame of `series` (the neutral fill when `sentiment` is
    None), without its sentiment stream when the config drops it."""
    frame = build_feature_frame(series, config.indicators, sentiment)
    return frame if config.use_sentiment else frame.without_sentiment()


def _series_variant(
    series: PriceSeries, regime: str, config: RunConfig, sentiment: Mapping[date, float] | None
) -> _Variant:
    features = FULL_FEATURES if config.use_sentiment else NO_SENTIMENT
    return series.interval, regime, features, config.train.window, partial(_series_frame, series, config, sentiment)


def run_interval_experiment(
    daily: PriceSeries,
    config: RunConfig,
    sentiment: Mapping[date, float] | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> ExperimentReport:
    """Train both models on the daily series and on its weekly resample,
    identical pipeline otherwise; one row per (model, interval, seed).
    """
    if daily.interval != DAILY:
        raise DataError("interval experiment needs a daily input series")
    variants = [_series_variant(series, ALL_REGIMES, config, sentiment) for series in (daily, resample_weekly(daily))]
    return _run_grid(variants, config, timer)


def run_regime_experiment(
    series: PriceSeries,
    config: RunConfig,
    sentiment: Mapping[date, float] | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> ExperimentReport:
    """Classify each configured segment and train/evaluate both models on
    it; one row per (segment, model, seed).
    """
    variants = [_series_variant(s, label.value, config, sentiment) for s, label in regime_segments(series, config)]
    return _run_grid(variants, config, timer)


def regime_segments(series: PriceSeries, config: RunConfig) -> list[tuple[PriceSeries, RegimeLabel]]:
    """Each configured segment of `series` and its label; a DataError for one too short to classify."""
    segments = [series.between(start, end) for start, end in config.experiments.segments]
    return [(s, classify_regime(s, config.experiments.regime_threshold)) for s in segments]


def require_sentiment_stream(config: RunConfig) -> None:
    """The sentiment ablation cannot run on a config that drops the stream."""
    if not config.use_sentiment:
        raise ConfigError("the sentiment experiment needs use_sentiment true")


def run_sentiment_ablation(
    frame: FeatureFrame,
    config: RunConfig,
    timer: Callable[[], float] = time.perf_counter,
) -> ExperimentReport:
    """Train both models with and without the sentiment stream; the ablated
    variant simply omits the stream (input width 2*d_I instead of 3*d_I).
    Rows carry the config's interval.
    """
    require_sentiment_stream(config)
    if frame.sentiment is None:
        raise DataError("missing sentiment column in the full variant")
    ablated = frame.without_sentiment()
    variants = [
        (config.interval, ALL_REGIMES, FULL_FEATURES, config.train.window, lambda: frame),
        (config.interval, ALL_REGIMES, NO_SENTIMENT, config.train.window, lambda: ablated),
    ]
    return _run_grid(variants, config, timer)


def run_forget_gate_experiment(
    series: PriceSeries,
    config: RunConfig,
    sentiment: Mapping[date, float] | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> ExperimentReport:
    """Train the memory-cell model at each configured window size, all on
    one feature frame; one row per (window, seed), whose `mean_forget` is
    the mean forget-gate activation over the test windows.
    """
    interval, regime, features, _, make_frame = _series_variant(series, ALL_REGIMES, config, sentiment)
    make_frame = cache(make_frame)
    variants = [(interval, regime, features, window, make_frame) for window in config.experiments.window_sizes]
    return _run_grid(variants, config, timer, models=(LSTM,))
