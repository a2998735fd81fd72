"""Small statistics used by the benchmark: percentiles that carry their
sample count, and the attempted/failed tally behind `error_rate`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Percentile:
    q: float
    value: float
    n: int

    @property
    def beyond(self) -> int:
        """Samples strictly above the q-th rank; the guide's rule is to report
        the highest percentile with at least ten samples beyond it."""
        return self.n - math.ceil(self.n * self.q / 100.0)


def percentile(values: Iterable[float], q: float) -> Percentile:
    """q-th percentile (0..100), linear between the closest ranks, as
    `numpy.percentile` computes it by default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return Percentile(q, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs))


def fastest(timed: Iterable[tuple[str, float, int]]) -> dict[str, tuple[float, int]]:
    """Per request key, the (wall, samples) of its fastest repetition.

    Interference from other work on a shared machine only ever slows a
    request down, so the fastest of several identical requests is the
    steadiest estimate of what the program itself costs."""
    best: dict[str, tuple[float, int]] = {}
    for key, wall, samples in timed:
        if key not in best or wall < best[key][0]:
            best[key] = (wall, samples)
    return best


@dataclass
class Tally:
    """Operations attempted and failed. An operation is one request, or one
    grid cell; a request that exits non-zero fails all of its operations."""

    attempted: int = 0
    failed: int = 0

    def add(self, outcomes: Sequence[bool]) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(1 for ok in outcomes if not ok)

    @property
    def error_rate(self) -> float:
        if self.attempted < 1:
            raise ValueError("error_rate of no attempted operations")
        return self.failed / self.attempted
