"""The benchmark's traced run patches trendlab functions by module and name,
as listed in `perfbench/layers.py`. Resolving every one of them here makes a
rename fail the test suite, not only the traced benchmark run, and so does a
training call that stops going through its patched module name."""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

from trendlab import training
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.synthetic import sine_series

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


def test_train_calls_every_training_boundary(monkeypatch):
    names = [b.attr for b in BOUNDARIES if b.module == training.__name__]
    assert names, "no boundary on the training module"
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
    bundle = prepare_dataset(build_feature_frame(sine_series()), window=4)
    training.train(bundle.dataset, training.TrainConfig(epochs=2, layers=1, hidden_size=2, window=4))
    assert [name for name in names if calls[name] == 0] == []
