"""The benchmark's traced run patches trendlab functions by module and name,
as listed in `perfbench/layers.py`. Resolving every one of them here makes a
rename fail the test suite, not only the traced benchmark run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from layers import BOUNDARIES  # noqa: E402


def test_every_benchmark_boundary_resolves():
    missing = [
        b.key for b in BOUNDARIES
        if not callable(getattr(importlib.import_module(b.module), b.attr, None))
    ]
    assert missing == []
