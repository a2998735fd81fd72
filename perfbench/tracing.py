"""Span tracing from outside the program.

A `Tracer` replaces public functions at the names their calling module looks
up (`trendlab.training.forward_batch`, not `trendlab.network.forward_batch`)
with wrappers that record one span per call. Spans carry a name, start, end,
parent span and request id; parent stacks are kept per thread, so spans
recorded in experiment worker threads still hang under the grid that
scheduled them. Spans stay in memory until the run writes them out.

This module imports nothing from the program, so its helpers can be tested
without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    work: int = 0  # window-steps processed, where the boundary counts them

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: `module.attr` is the name the caller looks up,
    `span` the name recorded, and `required` the workloads that must call it.
    `tasks=True` marks a scheduler whose first argument is a list of
    zero-argument tasks; each task then gets its own `span`, parented to the
    span that was open when the scheduler was called, whichever thread runs it.
    """

    module: str
    attr: str
    span: str
    required: frozenset[str]
    work: Callable[..., int] | None = None
    tasks: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.request: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current(self) -> tuple[int | None, int | None]:
        """(span id, request id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, self.request)

    def call(self, name: str, fn: Callable, args, kwargs, *, parent=None, work: int = 0):
        """Run `fn(*args, **kwargs)` inside a span. `parent` overrides the
        thread's own stack with a (span id, request id) pair."""
        stack = self._stack()
        parent_id, request = parent if parent is not None else self.current()
        span_id = self._new_id()
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent_id, request, work))

    def _count(self, key: str) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        key = boundary.key

        if boundary.tasks:
            @functools.wraps(original)
            def schedule(tasks, *args, **kwargs):
                self._count(key)
                parent = self.current()

                def traced(task):
                    return lambda: self.call(boundary.span, task, (), {}, parent=parent)

                return original([traced(t) for t in tasks], *args, **kwargs)

            return schedule

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._count(key)
            work = boundary.work(*args, **kwargs) if boundary.work else 0
            return self.call(boundary.span, original, args, kwargs, work=work)

        return wrapper

    def install(self, boundaries: Iterable[Boundary]) -> None:
        """Patch every boundary. A missing attribute raises AttributeError:
        a renamed import must fail loudly, not read as zero calls."""
        for b in boundaries:
            module = importlib.import_module(b.module)
            original = getattr(module, b.attr)
            self.calls.setdefault(b.key, 0)
            self._installed.append((module, b.attr, original))
            setattr(module, b.attr, self._wrap(b, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def missing(self, boundaries: Iterable[Boundary], workload: str) -> list[str]:
        """Boundaries the workload must call that recorded no call."""
        return [b.key for b in boundaries if workload in b.required and self.calls.get(b.key, 0) == 0]

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span id: duration minus the part of it that child spans cover.
    Children running in parallel threads are counted once, as their union."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([(a, b) for a, b in clipped if b > a])
    return out
