"""Pinned bits of the recurrent kernel: the SHA-256 of what `forward_batch`
and `backward_batch` return for the paper's 3 x 32 models, and of the vector
a short training run ends at.

A case is a cell (lstm, rnn), with or without the sentiment stream, at one
batch size (windows x steps). Each case forwards streams A into new arrays
and backpropagates, then forwards streams B into that cache and
backpropagates again, then forwards B into a new last-step cache. The
predictions and the gradient vector of each pass are hashed; the last-step
predictions must hash as the reused ones do. The training entry is the
parameter vector after `train` runs 4 epochs on `paper_shaped_series(seed=0)`
with planted sentiment.

BLAS kernels differ between CPUs, builds and thread counts (OpenBLAS splits
a GEMM differently on one thread than on two), so the file holds one set of
hashes per machine line, which `machine_line()` writes: it names the core
kernel OpenBLAS runs and its thread count, which `trendlab.blas` pins to one
whatever `OPENBLAS_NUM_THREADS` says. Record or refresh this machine's set
with

    python tests/golden_kernel.py --write

which prints each recorded entry that changed before it overwrites them.
After a change that alters these bits on purpose, rewrite every set and say
so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trendlab import blas
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.network import ModelShape, backward_batch, forward_batch, init_parameters, last_step_cache
from trendlab.synthetic import paper_shaped_series, planted_sentiment
from trendlab.training import TrainConfig, train

GOLDEN = Path(__file__).with_name("golden_kernel.json")
SIZES = ((1, 1), (62, 12), (831, 12))


def machine_line() -> str:
    """numpy, BLAS with the core kernel OpenBLAS runs and its thread count
    ("unpinned" where trendlab could not pin it), and CPU model: what the
    hashes depend on besides the code."""
    try:
        library = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{library['name']} {library['version']}"
    except (TypeError, KeyError):
        library = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"numpy {np.__version__}; blas {library}, {blas.describe()}; cpu {cpu}"


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def _streams(rng: np.random.Generator, n: int, steps: int, sentiment: bool) -> tuple:
    return (
        rng.normal(size=(n, steps, 3)),
        rng.normal(size=(n, steps, 3)),
        rng.uniform(size=(n, steps, 1)) if sentiment else None,
    )


def kernel_case(cell: str, sentiment: bool, n: int, steps: int) -> dict[str, str]:
    """The hashes of one case, keyed fresh/reused/last_step.predictions and
    fresh/reused.gradient."""
    params = init_parameters(ModelShape(cell=cell, d_s=1 if sentiment else None), seed=5)
    rng = np.random.default_rng(n * 100 + steps)
    a, b = _streams(rng, n, steps, sentiment), _streams(rng, n, steps, sentiment)
    d_pred = rng.normal(size=n)
    out = {}
    cache = forward_batch(a, params)
    out["fresh.predictions"] = _sha(cache.predictions)
    out["fresh.gradient"] = _sha(backward_batch(cache, d_pred).vector)
    cache = forward_batch(b, cache)
    out["reused.predictions"] = _sha(cache.predictions)
    out["reused.gradient"] = _sha(backward_batch(cache, d_pred).vector)
    out["last_step.predictions"] = _sha(forward_batch(b, last_step_cache(params, n, steps)).predictions)
    return out


def trained_vector() -> str:
    series = paper_shaped_series(seed=0)
    frame = build_feature_frame(series, sentiment_by_date=planted_sentiment(series))
    return _sha(train(prepare_dataset(frame, 12).dataset, TrainConfig(epochs=4)).parameters.vector)


def case_names() -> list[tuple[str, tuple]]:
    return [
        (f"{cell}{'' if sentiment else '_no_sentiment'}_{n}x{steps}", (cell, sentiment, n, steps))
        for cell in ("lstm", "rnn") for sentiment in (True, False) for n, steps in SIZES
    ]


def compute() -> dict:
    """Everything the golden file pins for one machine line, as this tree
    computes it here."""
    cases = {name: kernel_case(*args) for name, args in case_names()}
    return {"cases": cases, "train_4_epochs.vector": trained_vector()}


def _flat(entries: dict, prefix: str = "") -> dict[str, str]:
    """The golden file's nested entries as {"cases.<case>.<key>": sha, ...}."""
    flat = {}
    for key, value in entries.items():
        flat.update(_flat(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key: value})
    return flat


def changed_entries(old: dict, new: dict) -> list[str]:
    """The entries of `new` whose hash differs from `old`'s, or that `old`
    lacks or only `old` has, by dotted name."""
    old, new = _flat(old), _flat(new)
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden_kernel.py --write")
    machines = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    computed = compute()
    changed = changed_entries(machines.get(machine_line(), {}), computed)
    print("\n".join(f"changed: {name}" for name in changed) or "no recorded entry changed")
    machines[machine_line()] = computed
    GOLDEN.write_text(json.dumps(machines, indent=1, sort_keys=True) + "\n")
    print(f"wrote {machine_line()!r} to {GOLDEN}")
