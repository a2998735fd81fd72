"""Where the traced run wraps the program, and how its spans become the
per-layer metrics named in BENCHMARK.json.

Each boundary is a function looked up by its caller's module, so patching it
there catches exactly the calls that module makes. `required` lists the
workloads that must call it; a required boundary with zero calls fails the
traced run, so a renamed import cannot make a layer silently read 0.
"""

from __future__ import annotations

from typing import Sequence

from measure import percentile
from tracing import Boundary, Span, self_times

TRAIN, GRID, PREDICT = "train_weekly", "regime_grid", "predict_daily"
ALL = frozenset((TRAIN, GRID, PREDICT))


def _window_steps(streams, params) -> int:
    n, steps = streams[0].shape[:2]
    return n * steps


def _b(module: str, attr: str, span: str, *required: str, **kw) -> Boundary:
    return Boundary(f"trendlab.{module}", attr, span, frozenset(required), **kw)


BOUNDARIES: tuple[Boundary, ...] = (
    _b("cli", "parse_price_csv", "market_data.parse_price_csv", *ALL),
    _b("cli", "resample_weekly", "market_data.resample_weekly", PREDICT),
    _b("features", "rsi", "indicators.rsi", *ALL),
    _b("features", "cci", "indicators.cci", *ALL),
    _b("features", "macd", "indicators.macd", *ALL),
    _b("cli", "build_feature_frame", "features.build_feature_frame", TRAIN, PREDICT),
    _b("experiments", "build_feature_frame", "features.build_feature_frame", GRID),
    _b("cli", "prepare_dataset", "features.prepare_dataset", TRAIN),
    _b("experiments", "prepare_dataset", "features.prepare_dataset", GRID),
    _b("cli", "inference_windows", "features.inference_windows", PREDICT),
    _b("cli", "load_checkpoint", "training.load_checkpoint", PREDICT),
    _b("cli", "save_checkpoint", "training.save_checkpoint", TRAIN),
    _b("cli", "train", "training.train", TRAIN),
    _b("experiments", "train", "training.train", GRID),
    _b("training", "evaluate", "training.evaluate", TRAIN, GRID),
    _b("training", "adam_step", "training.adam_step", TRAIN, GRID),
    _b("training", "forward_batch", "network.forward_batch", TRAIN, GRID, work=_window_steps),
    _b("training", "backward_batch", "network.backward_batch", TRAIN, GRID),
    _b("cli", "forward_batch", "network.forward_batch", PREDICT, work=_window_steps),
    _b("cli", "run_regime_experiment", "experiments.run_regime_experiment", GRID),
    # The cell scheduler is private; it is the one place every grid cell
    # passes through, serial or threaded.
    _b("experiments", "_run_cells", "experiments.cell", GRID, tasks=True),
    _b("cli", "report_to_csv", "reports.report_to_csv", GRID),
    _b("cli", "report_to_json", "reports.report_to_json", GRID),
    _b("cli", "aggregate_report", "reports.aggregate_report", GRID),
    _b("cli", "aggregate_to_csv", "reports.aggregate_to_csv", GRID),
    _b("cli", "summary_table", "reports.summary_table", GRID),
)

REQUEST_SPAN = "cli.main"


def layer_metrics(spans: Sequence[Span], requests: int, overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics, as time or calls per traced request. A layer the
    workload never reaches reads 0."""
    own = self_times(spans)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def ms(name: str) -> float:
        return sum(s.duration for s in named(name)) * 1000.0 / requests

    def prefixed_ms(prefix: str) -> float:
        return sum(s.duration for s in spans if s.name.startswith(prefix)) * 1000.0 / requests

    def self_ms(name: str) -> float:
        return sum(own[s.id] for s in named(name)) * 1000.0 / requests

    def calls(name: str) -> float:
        return len(named(name)) / requests

    forward = named("network.forward_batch")
    window_steps = sum(s.work for s in forward)
    network_s = sum(s.duration for s in forward + named("network.backward_batch"))
    cells = [s.duration for s in named("experiments.cell")]
    grid_wall = sum(s.duration for s in named("experiments.run_regime_experiment"))

    return {
        "network.forward_batch.ms": ms("network.forward_batch"),
        "network.forward_batch.calls": calls("network.forward_batch"),
        "network.backward_batch.ms": ms("network.backward_batch"),
        "network.backward_batch.calls": calls("network.backward_batch"),
        "network.us_per_window_step": network_s * 1e6 / window_steps if window_steps else 0.0,
        "training.adam_step.ms": ms("training.adam_step"),
        "training.adam_step.calls": calls("training.adam_step"),
        "training.train.self_ms": self_ms("training.train"),
        "training.evaluate.ms": ms("training.evaluate"),
        "experiments.cell_s_p50": percentile(cells, 50).value if cells else 0.0,
        "experiments.cell_s_max": max(cells, default=0.0),
        "experiments.busy_ratio": sum(cells) / grid_wall if grid_wall else 0.0,
        "market_data.parse_price_csv.ms": ms("market_data.parse_price_csv"),
        "market_data.resample_weekly.ms": ms("market_data.resample_weekly"),
        "indicators.ms": prefixed_ms("indicators."),
        "features.build_feature_frame.self_ms": self_ms("features.build_feature_frame"),
        "features.inference_windows.ms": ms("features.inference_windows"),
        "features.prepare_dataset.ms": ms("features.prepare_dataset"),
        "training.load_checkpoint.ms": ms("training.load_checkpoint"),
        "training.save_checkpoint.ms": ms("training.save_checkpoint"),
        "reports.ms": prefixed_ms("reports."),
        "cli.main.self_ms": self_ms(REQUEST_SPAN),
        "trace.overhead_ms": overhead_ms,
    }
