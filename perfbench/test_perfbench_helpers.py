"""Tests for the benchmark's own helpers: percentiles with their sample
count, self time from nested and threaded spans, wrapping and the zero-call
self-check, and the attempted/failed tally behind error_rate."""

from __future__ import annotations

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from layers import BOUNDARIES, layer_metrics
from measure import Tally, percentile
from tracing import Boundary, Span, Tracer, self_times


def test_percentile_interpolates_and_counts():
    p = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert (p.value, p.n) == (2.5, 4)
    assert percentile([7.0], 90).value == 7.0
    assert percentile(range(1, 11), 0).value == 1.0
    assert percentile(range(1, 11), 100).value == 10.0


def test_percentile_samples_beyond():
    p90 = percentile([float(k) for k in range(1, 101)], 90)
    assert p90.value == pytest.approx(90.1)
    assert (p90.n, p90.beyond) == (100, 10)
    assert percentile([1.0] * 9, 90).beyond == 0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, 1)


def test_self_time_nested():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 5.0, 7.0, parent=1),
        span(4, 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_self_time_counts_parallel_children_once():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 6.0, parent=1),   # worker thread A
        span(3, 2.0, 8.0, parent=1),   # worker thread B, overlapping A
        span(4, 9.0, 12.0, parent=1),  # runs past its parent: clipped
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    mod.unused = lambda: None

    def schedule(tasks, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return [f.result() for f in [pool.submit(t) for t in tasks]]

    mod.schedule = schedule
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_wraps_counts_and_restores(fake_module):
    original = fake_module.leaf
    boundaries = (
        Boundary("perfbench_fake", "outer", "outer", frozenset({"w"})),
        Boundary("perfbench_fake", "leaf", "leaf", frozenset({"w"}), work=lambda x: 10 * x),
        Boundary("perfbench_fake", "unused", "unused", frozenset({"w"})),
        Boundary("perfbench_fake", "unused", "unused", frozenset({"other"})),
    )
    tracer = Tracer()
    tracer.request = 7
    tracer.install(boundaries)
    try:
        assert fake_module.outer(3) == 8
    finally:
        tracer.uninstall()
    assert fake_module.leaf is original
    outer, = [s for s in tracer.spans if s.name == "outer"]
    leaf, = [s for s in tracer.spans if s.name == "leaf"]
    assert (leaf.parent, leaf.request, leaf.work) == (outer.id, 7, 30)
    assert (outer.parent, outer.request) == (None, 7)
    assert tracer.missing(boundaries, "w") == ["perfbench_fake.unused"]
    assert tracer.missing(boundaries, "other") == ["perfbench_fake.unused"]


def test_tracer_rejects_missing_attribute(fake_module):
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([Boundary("perfbench_fake", "renamed", "x", frozenset())])


def test_threaded_tasks_hang_under_the_scheduling_span(fake_module):
    boundaries = (
        Boundary("perfbench_fake", "schedule", "cell", frozenset({"w"}), tasks=True),
        Boundary("perfbench_fake", "leaf", "leaf", frozenset({"w"})),
    )
    tracer = Tracer()
    tracer.request = 3
    tracer.install(boundaries)
    threads = set()

    def task(k):
        def run():
            threads.add(threading.get_ident())
            return fake_module.leaf(k)
        return run

    try:
        result = tracer.call(
            "grid", fake_module.schedule, ([task(k) for k in range(6)], 2), {}
        )
    finally:
        tracer.uninstall()
    assert result == [1, 2, 3, 4, 5, 6]
    grid, = [s for s in tracer.spans if s.name == "grid"]
    cells = [s for s in tracer.spans if s.name == "cell"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(cells) == 6 and len(leaves) == 6
    assert all(c.parent == grid.id and c.request == 3 for c in cells)
    assert {leaf.parent for leaf in leaves} == {c.id for c in cells}
    assert threading.get_ident() not in threads
    own = self_times(tracer.spans)
    assert 0.0 <= own[grid.id] <= grid.duration


def test_layer_metrics_per_request():
    spans = [
        Span(1, "cli.main", 0.0, 1.0, None, 1),
        Span(2, "network.forward_batch", 0.1, 0.3, 1, 1, work=1000),
        Span(3, "network.backward_batch", 0.3, 0.6, 1, 1),
        Span(4, "indicators.rsi", 0.6, 0.7, 1, 1),
        Span(5, "indicators.macd", 0.7, 0.8, 1, 1),
    ]
    m = layer_metrics(spans, requests=2, overhead_ms=0.5)
    assert m["network.forward_batch.ms"] == pytest.approx(100.0)
    assert m["network.forward_batch.calls"] == 0.5
    assert m["network.us_per_window_step"] == pytest.approx(0.5e6 / 1000)
    assert m["indicators.ms"] == pytest.approx(100.0)
    assert m["cli.main.self_ms"] == pytest.approx(150.0)
    assert m["experiments.busy_ratio"] == 0.0
    assert m["trace.overhead_ms"] == 0.5


def test_layer_metrics_match_benchmark_json():
    import json

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics([], requests=1, overhead_ms=0.0)) == names
    assert len({b.key for b in BOUNDARIES}) == len(BOUNDARIES)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.add([True])
    tally.add([True, False, True])
    tally.add([False] * 18)  # a grid request that exited non-zero
    assert (tally.attempted, tally.failed) == (22, 19)
    assert tally.error_rate == pytest.approx(19 / 22)
    with pytest.raises(ValueError):
        Tally().error_rate


def test_grid_check_fails_mismatched_error_and_missing_rows():
    from workloads import GRID_SEEDS, RegimeGrid, Request

    want = [["lstm", "bear", s, 0.1, 0.2, ""] for s in GRID_SEEDS]
    workload = RegimeGrid(0, {"regime_grid": {"0": {"grid": {"rows": want}}}})
    got = [
        ["lstm", "bear", 0, 0.1, 0.2, ""],
        ["lstm", "bear", 1, 0.1 * (1 + 1e-3), 0.2, ""],
    ]
    assert workload.compare({"rows": got}, {"rows": want}) == [True, False, False]
    errored = [["lstm", "bear", 0, None, None, "DataError"]] + got[1:]
    assert workload.compare({"rows": errored}, {"rows": want})[0] is False
    request = Request("grid", (), Path("does-not-exist"), 0)
    assert workload.check(request, 2) == [False] * 18
    assert workload.check(request, 0) == [False] * 18
