"""trendlab benchmark.

    python3 perfbench/run.py --workload {train_weekly,regime_grid,predict_daily,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. Builds nothing: the program is imported from
`src/` beside this directory. Each invocation is one fresh process running
one workload (`all` runs the three in turn, each in its own process). Set-up
generates the inputs from the seed and ends with one untimed warm-up request.
It runs `SETUP_REPS` times, spread through the run, and `setup_s` is the
median. After each set-up the timed loop repeats the workload's request
cycle for its share of `--seconds`, checking every request's outputs
against `reference.json`.

`--trace 0` reports the end-to-end metrics with nothing wrapped. `--trace 1`
reports the per-layer metrics instead: each request runs once plain and
once traced, and the traced copy feeds the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Exit code 0 when every operation was
correct, 1 when one was not, 2 when the benchmark could not run.

`--write-reference` regenerates `reference.json` from the current program;
use it only for a change meant to alter numerical results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE = BENCH / "reference.json"
SETUP_REPS = 5
NAMES = ("train_weekly", "regime_grid", "predict_daily")

# Every workload reports the same metric set; these are the workload's own
# names for what a metric means there: (name, source metric, factor, unit).
ALIASES = {
    "train_weekly": (("train_samples_per_s", "samples_per_s", 1.0, "1/s"),),
    "regime_grid": (("grid_s", "best_request_ms_p50", 1e-3, "s"),),
    "predict_daily": (
        ("predict_ms_p50", "request_ms_p50", 1.0, "ms"),
        ("predict_ms_p90", "request_ms_p90", 1.0, "ms"),
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    return args


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def machine(workload: str, seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TRENDLAB_THREADS": os.environ.get("TRENDLAB_THREADS"),
        "commit": commit(),
    }


def set_threads(workload_cls) -> None:
    if workload_cls.threads is None:
        os.environ.pop("TRENDLAB_THREADS", None)
    else:
        os.environ["TRENDLAB_THREADS"] = workload_cls.threads


def set_up(workload_cls, seed: int, reference: dict, work: Path):
    """One fresh set-up ending with a checked warm-up request. Returns the
    workload, the set-up time and whether the warm-up was correct."""
    from workloads import run_request

    started = time.perf_counter()
    workload = workload_cls(seed, reference)
    work.mkdir(parents=True)
    workload.setup(work)
    request = workload.deck()[0]
    code, _ = run_request(request)
    took = time.perf_counter() - started
    return workload, took, all(workload.check(request, code))


def measure(workload, seconds: float, tally, tracer=None) -> list[tuple[str, float, int, bool]]:
    """(request key, wall seconds, samples, traced) for every timed request.
    With a tracer, each request runs once plain and once traced, alternating
    which goes first."""
    from layers import BOUNDARIES, REQUEST_SPAN
    from workloads import run_request

    def once(request, traced: bool) -> None:
        around = None
        try:
            if traced:
                tracer.request = (tracer.request or 0) + 1
                tracer.install(BOUNDARIES)
                around = lambda fn, argv: tracer.call(REQUEST_SPAN, fn, (argv,), {})
            code, wall = run_request(request, around)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(workload.check(request, code))
        timed.append((request.key, wall, request.samples, traced))

    # Stops at the first request past the deadline once the first cycle is
    # complete, so every distinct request is timed and no run overshoots its
    # share by more than one request.
    timed = []
    deadline = time.perf_counter() + seconds
    for cycle in itertools.count():
        for request in workload.deck():
            if tracer is None:
                once(request, False)
            else:
                traced_first = (len(timed) // 2) % 2 == 1
                once(request, traced_first)
                once(request, not traced_first)
            if cycle > 0 and time.perf_counter() >= deadline:
                return timed
        if time.perf_counter() >= deadline:
            return timed


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    from layers import BOUNDARIES, layer_metrics
    from measure import Tally, fastest, percentile
    from tracing import Tracer
    from workloads import WORKLOADS

    reference = json.loads(REFERENCE.read_text())
    workload_cls = WORKLOADS[name]
    set_threads(workload_cls)
    info = machine(name, seed)
    print("machine " + json.dumps(info))

    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"{name}-{os.getpid()}"
    tally = Tally()
    tracer = Tracer() if trace else None
    timed, setup_times, warm_ok = [], [], True
    try:
        # Set-ups are spread through the run, each followed by its share of
        # the timed requests, so that neither lands wholly in one burst of
        # load from other work on the machine.
        for k in range(SETUP_REPS):
            workload, took, ok = set_up(workload_cls, seed, reference, work / f"setup{k}")
            setup_times.append(took)
            warm_ok = warm_ok and ok
            timed += measure(workload, seconds / SETUP_REPS, tally, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = warm_ok and tally.failed == 0
    if not warm_ok:
        print("error: a warm-up request failed its check", file=sys.stderr)
    # Figures printed for the reader but not gated: (value, unit, note).
    shown: dict[str, tuple[float, str, str]] = {}
    if trace:
        plain = fastest((k, w, n) for k, w, n, traced in timed if not traced)
        with_trace = fastest((k, w, n) for k, w, n, traced in timed if traced)
        overhead_ms = statistics.median(with_trace[k][0] - plain[k][0] for k in plain) * 1000.0
        values = layer_metrics(tracer.spans, tracer.request, overhead_ms)
        missing = tracer.missing(BOUNDARIES, name)
        if missing:
            correct = False
            print(f"error: wrapped boundaries with zero calls: {', '.join(missing)}", file=sys.stderr)
        tracer.write(RUN_DIR / f"{name}-seed{seed}.spans.jsonl")
        notes = {"trace.overhead_ms": f"fastest traced minus fastest plain run, median over {len(plain)} distinct requests"}
        wanted = spec["per_layer"]
    else:
        best = fastest((k, w, n) for k, w, n, _ in timed)
        best_p50 = percentile([wall for wall, _ in best.values()], 50)
        values = {
            "setup_s": statistics.median(setup_times),
            "best_request_ms_p50": best_p50.value * 1000.0,
            "samples_per_s": sum(n for _, n in best.values()) / sum(wall for wall, _ in best.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        fastest_of = f"fastest of ~{len(timed) // len(best)} runs of each of {len(best)} distinct requests"
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "best_request_ms_p50": fastest_of,
            "samples_per_s": fastest_of,
        }
        for q in (50, 90):
            p = percentile([wall for _, wall, _, _ in timed], q)
            shown[f"request_ms_p{q}"] = (p.value * 1000.0, "ms", f"all {p.n} requests, {p.beyond} beyond")
        for alias, source, factor, unit in ALIASES[name]:
            value = values[source] if source in values else shown[source][0]
            shown[alias] = (value * factor, unit, f"= {source}")
        wanted = spec["end_to_end"]
    shown["error_rate"] = (tally.error_rate, "ratio", f"{tally.failed} of {tally.attempted} operations")

    units = {m["name"]: m["unit"] for m in wanted}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    for n, m in metrics.items():
        print(f"{name} {n} {m['value']:.6g} {m['unit']}" + (f" ({notes[n]})" if n in notes else ""))
    for n, (value, unit, note) in shown.items():
        print(f"{name} {n} {value:.6g} {unit} ({note}; not gated)")

    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    (RUN_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"machine": info, **result, "setup_s": setup_times, "requests": timed}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; prints their lines and one
    combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit code {done.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        worst = max(worst, done.returncode)
    print(json.dumps(combined))
    return worst


def write_reference() -> int:
    """Record every request's outputs for every fixture variant."""
    import workloads
    from workloads import WORKLOADS, RegimeGrid, run_request

    doc = {"settings": reference_settings(workloads), **{name: {} for name in NAMES}}
    RUN_DIR.mkdir(exist_ok=True)
    for name in NAMES:
        cls = WORKLOADS[name]
        set_threads(cls)
        for variant in range(workloads.VARIANTS):
            work = RUN_DIR / f"reference-{name}-{variant}"
            try:
                workload = cls(variant, None)
                work.mkdir(parents=True)
                workload.setup(work)
                expected = {}
                for request in workload.deck():
                    code, _ = run_request(request)
                    if code != 0:
                        print(f"error: {name} variant {variant} {request.key} exited {code}", file=sys.stderr)
                        return 2
                    expected[request.key] = workload.observe(request)
                if isinstance(workload, RegimeGrid):
                    expected["grid"]["cell_train_windows"] = workload.cell_train_windows()
                doc[name][str(variant)] = expected
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} variant {variant} recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def reference_settings(w) -> dict:
    return {
        "variants": w.VARIANTS,
        "train_epochs": w.TRAIN_EPOCHS,
        "grid_epochs": w.GRID_EPOCHS,
        "checkpoint_epochs": w.CHECKPOINT_EPOCHS,
        "grid_seeds": list(w.GRID_SEEDS),
        "model": w.MODEL,
        "daily_bars": w.DAILY_BARS,
        "history_years": list(w.HISTORY_YEARS),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # One BLAS thread: faster and steadier than the default for these small
    # GEMMs on a 2-core machine. It must be set before numpy is imported,
    # which is why the program's modules are imported below and not at the top.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "trendlab" / "__init__.py").is_file():
        print(f"error: no trendlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import trendlab

    if Path(trendlab.__file__).resolve().parent != (src / "trendlab").resolve():
        print(f"error: imported trendlab from {trendlab.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.write_reference:
        return write_reference()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    settings = json.loads(REFERENCE.read_text()).get("settings")
    if settings != reference_settings(workloads):
        print("error: reference.json was written for other settings; see --write-reference", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
