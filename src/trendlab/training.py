"""Root-mean-squared-error objective, Adam optimizer, full-batch training
loop, and checkpoint persistence.
"""

from __future__ import annotations

import base64
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import errors, forked, network
from .errors import CheckpointError, ConfigError, DataError, DivergenceError, enforce_field_types, require_finite
from .features import WindowedDataset
from .market_data import NormalizationScale
from .network import (
    CELLS,
    ForwardCache,
    ModelShape,
    NetworkParameters,
    backward_batch,
    forget_gate_sum,
    forward_batch,
    init_parameters,
    shared_caches,
)

CHECKPOINT_SCHEMA_VERSION = 4
STREAMS = ("fundamental", "technical", "sentiment")
CLOCK_ENV = "TRENDLAB_CLOCK"


def clock() -> float:
    """`time.perf_counter()`, or 0.0 when the environment sets
    `TRENDLAB_CLOCK=fixed` (any case), so that every wall time is 0.0."""
    return 0.0 if os.environ.get(CLOCK_ENV, "").lower() == "fixed" else time.perf_counter()


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Defaults follow the experiment setup:
    2000 epochs, learning rate 0.01, 3 layers."""

    epochs: int = 2000
    learning_rate: float = 0.01
    layers: int = 3
    hidden_size: int = 32
    window: int = 12
    seed: int = 0
    cell: str = network.LSTM
    d_i: int | None = None
    forget_bias: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        enforce_field_types(self)
        require_finite(self)
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("layers", "hidden_size", "window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.cell not in CELLS:
            raise ConfigError(f"cell must be one of {CELLS}, got {self.cell!r}")
        if self.d_i is not None and self.d_i < 1:
            raise ConfigError(f"d_i must be positive, got {self.d_i}")
        for name in ("beta1", "beta2"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


def rmse(predictions, truths) -> float:
    """sqrt(mean((pred - true)^2)); zero iff the vectors agree elementwise."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape:
        raise DataError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise DataError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def rmse_gradient_scale(cost: float, n: int) -> float:
    """1 / (n * cost), the factor that takes the residual predictions -
    truths of n values to d rmse / d predictions; zero at zero loss, where
    the square root is not differentiable (training has converged)."""
    return 0.0 if cost == 0.0 else 1.0 / (n * cost)


def adam_step(
    params: NetworkParameters, grads: NetworkParameters, m: np.ndarray, v: np.ndarray, t: int, config: TrainConfig
) -> None:
    """One bias-corrected Adam update of the whole parameter vector, in
    place on `params.vector`, `m` and `v`:

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) (g g);
    theta <- theta - (lr (m / (1-b1^t))) / (sqrt(v / (1-b2^t)) + eps)

    Each element takes these operations in this order, so the bits are
    those of the expressions as written.
    """
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    g = grads.vector
    if g.shape != params.vector.shape:
        raise DataError(f"gradient size {g.size} != parameter size {params.vector.size}")
    if not np.isfinite(g).all():
        name = next(name for name, block in grads.param_items() if not np.isfinite(block).all())
        raise DivergenceError(f"non-finite gradient in block {name}")
    beta1, beta2 = config.beta1, config.beta2
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    params.vector -= config.learning_rate * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + config.epsilon)


def model_shape(widths: tuple[int, int, int | None], config: TrainConfig) -> ModelShape:
    """The model `config` builds on streams of these widths: fundamental,
    technical, and sentiment (None without the stream)."""
    d_a, d_f, d_s = widths
    return ModelShape(cell=config.cell, d_a=d_a, d_f=d_f, d_s=d_s, d_i=config.d_i,
                      layers=config.layers, hidden=config.hidden_size)


@dataclass(frozen=True)
class TrainingRun:
    """Per-epoch training cost, final metrics, and the trained parameters.
    `test_rmse` and `test_mean_forget` are `evaluate` of the test split:
    both None when it is empty, the mean None for a plain recurrent cell."""

    epoch_rmse: tuple[float, ...]
    train_rmse: float
    test_rmse: float | None
    test_mean_forget: float | None
    wall_seconds: float
    parameters: NetworkParameters


# The most windows in a training shard, whose activations are all that a
# process holds. Forward plus backward cost per window is flat from ~96
# windows a shard up (3 x 32, 12 steps, on a 2-core x86-64 VM: 58-63 us at
# 96-256, 73 us at 67), so every shard of a multi-shard split, 96-192
# windows, runs at full speed on half the activations of 256-window shards.
SHARD_WINDOWS = 192


def near_equal(n: int, parts: int) -> list[range]:
    """0..n-1 as `parts` contiguous ranges of near-equal length, the longer first."""
    size, longer = divmod(n, parts)
    edges = [j * size + min(j, longer) for j in range(parts + 1)]
    return [range(start, stop) for start, stop in zip(edges, edges[1:])]


def shard_bounds(n_windows: int) -> list[range]:
    """The window ranges of ceil(n / SHARD_WINDOWS) contiguous shards of
    near-equal size, the longer first, the count rounded up to a power of
    two so that a power-of-two number of processes split them into
    subtrees of `tree_sum`: 831 windows are seven shards of 104 and one of
    103, and 500 are four of 125, not three of 167. Every shard of a split
    into several holds 96-192 windows."""
    return near_equal(n_windows, 1 << (-(-n_windows // SHARD_WINDOWS) - 1).bit_length())


def tree_sum(vectors: Iterable[np.ndarray]) -> np.ndarray | None:
    """The sum of `vectors` over a fixed balanced binary tree (pairwise
    summation, whose rounding error grows as log n, not n: Higham 1993),
    None if there are none. It streams: each pair adds as `left += right`
    as soon as both exist, so it holds at most log2(n) + 1 partial sums,
    and the sum lands in the first vector. For a power-of-two n the tree
    is recursive halving, so the sums of its aligned subtrees, added by
    `tree_sum` in order, give the same bits."""
    partials: list[tuple[int, np.ndarray]] = []  # (leaves, sum), leaf counts falling
    for vector in vectors:
        leaves = 1
        while partials and partials[-1][0] == leaves:
            left = partials.pop()[1]
            left += vector
            vector, leaves = left, 2 * leaves
        partials.append((leaves, vector))
    while len(partials) > 1:
        right = partials.pop()[1]
        left = partials[-1][1]
        left += right
    return partials[0][1] if partials else None


class _Shards:
    """The shards of a split that one process owns, in shard order, and the
    parameters they run on: the caller's, or a forked helper's copy, which
    each request overwrites. Their forward caches share one block, made at
    the first run and sized for the longest shard, so the process holds one
    shard's activations: each shard is read right after its forward, before
    the next shard's overwrites them. Every forward pass of `train` runs
    here: the training shards, each epoch and once more, and the test split."""

    def __init__(self, split: WindowedDataset, shards: list[range], params: NetworkParameters):
        self.params = params
        self.streams = [tuple(None if s is None else s[shard.start : shard.stop] for s in split.streams)
                        for shard in shards]
        self.labels = [split.labels[shard.start : shard.stop] for shard in shards]
        self.steps = split.window
        self.caches: list[ForwardCache] | None = None

    def run(self, backward: bool):
        """Yields each shard's cache after its forward pass at the current
        parameters (its activations last until the next shard's) and, if
        `backward`, the shard's share of the RMSE gradient before its one
        scale: that of sum(residual * predictions), residual held fixed."""
        if self.caches is None:
            self.caches = shared_caches(self.params, [len(labels) for labels in self.labels], self.steps)
        for streams, labels, cache in zip(self.streams, self.labels, self.caches):
            cache = forward_batch(streams, cache)
            yield cache, backward_batch(cache, cache.predictions - labels) if backward else None

    def summed(self, backward: bool) -> tuple[list[np.ndarray], NetworkParameters | None]:
        """Each shard's predictions at the current parameters, in shard
        order, and, if `backward`, the `tree_sum` of the shards' unscaled
        gradients, in place in the first shard's (None otherwise): the sum
        of this process's subtree."""
        predictions, total = [], None

        def gradients():
            nonlocal total
            for cache, grads in self.run(backward):
                predictions.append(cache.predictions)
                if grads is not None:
                    if total is None:
                        total = grads
                    yield grads.vector

        tree_sum(gradients())
        return predictions, total

    def serve(self, conn) -> None:
        """A forked helper's loop until the caller closes its end: each
        request, a parameter vector and whether to run the backward pass,
        is answered with one message, its shards' predictions in shard
        order and one vector, their gradients' `tree_sum` (None without
        the backward pass), whatever its shard count."""
        while True:
            try:
                vector, backward = conn.recv()
            except EOFError:
                return
            self.params.vector[...] = vector
            predictions, total = self.summed(backward)
            conn.send((predictions, None if total is None else total.vector))


class _ShardedBatch:
    """The training split as shards, run by a power-of-two number of
    processes, the caller and its helpers: the largest power of two up to
    1 + `forked.helper_count(shards)`. Each process runs a contiguous group
    of shards (the caller's is the first), which, as the shard count is a
    power of two too, is one subtree of the balanced tree over the shards.
    Predictions join in shard order, and the caller `tree_sum`s the
    processes' subtree sums in process order, which completes the one
    tree: the results depend on the shard layout alone."""

    def __init__(self, split: WindowedDataset, params: NetworkParameters, helpers: forked.Helpers | None):
        shards = shard_bounds(split.n_windows)
        usable = 1 if helpers is None else 1 + forked.helper_count(len(shards))
        groups = near_equal(len(shards), 1 << (usable.bit_length() - 1))
        self.helpers = [
            helpers.start(_Shards(split, shards[group.start : group.stop], params).serve) for group in groups[1:]
        ]
        self.own = _Shards(split, shards[: groups[0].stop], params)

    def run(self, backward: bool) -> tuple[np.ndarray, NetworkParameters | None]:
        """Every training window's prediction at the current parameters and,
        if `backward`, the `tree_sum` of the shards' unscaled gradients, in
        place in the first shard's (None otherwise)."""
        for helper in self.helpers:
            helper.conn.send((self.own.params.vector, backward))
        predictions, total = self.own.summed(backward)

        def subtree_sums():
            if total is not None:
                yield total.vector
            for helper in self.helpers:
                parts, vector = helper.recv("its shards")
                predictions.extend(parts)
                if vector is not None:
                    yield vector

        tree_sum(subtree_sums())
        return np.concatenate(predictions), total


def _fit(
    split: WindowedDataset, params: NetworkParameters, config: TrainConfig, helpers: forked.Helpers | None
) -> tuple[list[float], float]:
    """Every epoch of Adam on the training split, in place on `params`, then
    the split's RMSE at the trained parameters: the per-epoch costs and the
    final one. The shards run in the caller and in helpers that `helpers`
    forks (none if it is None). Each epoch is one exchange with each
    helper: the parameter vector out; its shards' predictions and their
    unscaled gradients' sum back. The summed gradient is scaled once by
    `rmse_gradient_scale` of the joined predictions' RMSE. The shard caches
    are freed when it returns."""
    m = np.zeros_like(params.vector)
    v = np.zeros_like(params.vector)
    epoch_rmse: list[float] = []
    batch = _ShardedBatch(split, params, helpers)
    for epoch in range(config.epochs):
        try:
            predictions, grads = batch.run(backward=True)
            cost = rmse(predictions, split.labels)
            if not math.isfinite(cost):
                raise DivergenceError("non-finite loss")
            epoch_rmse.append(cost)
            grads.vector *= rmse_gradient_scale(cost, split.n_windows)
            adam_step(params, grads, m, v, epoch + 1, config)
            del predictions, grads  # not held through the next epoch's shards
        except DivergenceError as exc:
            raise DivergenceError(f"diverged at epoch {epoch}: {exc}", epoch=epoch) from None
    return epoch_rmse, rmse(batch.run(backward=False)[0], split.labels)


def evaluate(split: WindowedDataset, params: NetworkParameters) -> tuple[float | None, float | None]:
    """The split's RMSE at `params` and its mean forget-gate activation (None
    for a tanh stack), both None when it is empty, over its `shard_bounds`
    shards: their `forget_gate_sum`s add in shard order and divide once."""
    if split.n_windows == 0:
        return None, None
    predictions, forget, count = [], 0.0, 0
    for cache, _ in _Shards(split, shard_bounds(split.n_windows), params).run(backward=False):
        predictions.append(cache.predictions)
        part, n = forget_gate_sum(cache)
        forget += part
        count += n
    return rmse(np.concatenate(predictions), split.labels), forget / count if count else None


def train(dataset: WindowedDataset, config: TrainConfig, *, fork_helpers: bool = True) -> TrainingRun:
    """Full-batch training: each epoch forwards every training window,
    backpropagates the RMSE cost, and takes one Adam step. Deterministic
    per (dataset, config).

    The training windows run as `shard_bounds` shards, a power-of-two
    count, in the caller and its forked helpers: synchronous data
    parallelism (Dean et al. 2012), since the windows are independent
    columns and the full-batch gradient is the sum of the shards'. The
    backward pass is linear in the prediction gradient, so each shard runs
    its backward pass right after its forward, on its residual predictions
    - labels, before the RMSE that scales it is known. The shards'
    gradients sum over one fixed balanced binary tree (`tree_sum`), which
    streams, so a process holds at most log2(shards) + 1 partial sums, not
    one per shard. Training runs on a power-of-two number of processes,
    the largest up to 1 + `forked.helper_count(shards)`, so that each
    process's contiguous group of shards is one subtree: on three usable
    CPUs it runs two processes, not three. Each epoch the caller sends out
    the parameter vector, and each helper runs its shards in order and
    returns their predictions and one vector, its subtree's sum: one
    message each way per helper, whatever its shard count. The caller joins
    the predictions in shard order for the RMSE, completes the tree from
    its own subtree's sum and the helpers', in the first shard's gradient,
    and scales the sum once by `rmse_gradient_scale` before the one Adam
    step. The bits depend on the window count, which fixes the shards and
    so the tree, never on the CPU count: with one usable CPU, or with
    `fork_helpers` false (a grid cell, which runs in a process of its own
    already), the caller runs every shard itself and gets the same bytes.
    Up to SHARD_WINDOWS training windows are one shard, the whole batch, as
    an unsharded run.

    Each process holds one shard's activations, whatever the window count
    (`_Shards`): the fused input and every step's gates and c, but neither
    h nor tanh(c), which the backward pass recomputes (a tanh layer holds
    its states). The test split runs the same way in `evaluate`, once the
    training block is freed. A reused block gives a fresh array's bits.

    After the final train-split pass the caller stops its helpers
    (`forked.Helpers.stop`) and evaluates the test split while they exit,
    still inside their block, so joining them costs the request nothing. A
    raise from that evaluation still joins every helper before it leaves.
    """
    if config.window != dataset.window:
        raise ConfigError(f"config window {config.window} != dataset window {dataset.window}")
    train_split = dataset.train
    if train_split.n_windows == 0:
        raise DataError("empty training split")

    started = clock()
    widths = tuple(None if stream is None else stream.shape[2] for stream in dataset.streams)
    params = init_parameters(model_shape(widths, config), config.seed, config.forget_bias)
    with forked.Helpers("training") as helpers:
        epoch_rmse, train_cost = _fit(train_split, params, config, helpers if fork_helpers else None)
        helpers.stop()
        test_cost, test_mean_forget = evaluate(dataset.test, params)
    if not all(math.isfinite(c) for c in (train_cost, test_cost) if c is not None):
        raise DivergenceError(f"diverged at epoch {config.epochs}: non-finite final RMSE", epoch=config.epochs)
    return TrainingRun(
        epoch_rmse=tuple(epoch_rmse),
        train_rmse=float(train_cost),
        test_rmse=test_cost,
        test_mean_forget=test_mean_forget,
        wall_seconds=clock() - started,
        parameters=params,
    )


# ---------------------------------------------------------------------------
# Checkpoint persistence: versioned JSON, bit-exact parameter round-trips.
# The model is `model_shape(widths, config)` plus `NetworkParameters.vector`.
# The file stores the training config, and each stream's column names under
# `columns`, whose counts are the stream widths: one description of the
# model, with no separate shape record to disagree with it. The vector is
# stored as the base64 of its little-endian float64 bytes; every value, NaN,
# infinities, -0.0 and subnormals included, reads back bit for bit. Its
# layout is `network.storage_order`, so a change to that order needs a
# schema version bump. The loader builds the described model and accepts
# the stored vector only if it fills it exactly. Versions 1-3 are refused.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    params: NetworkParameters
    config: TrainConfig
    scale: NormalizationScale
    column_scales: dict[str, NormalizationScale | None]
    columns: dict[str, list[str] | None]


def _widths(columns: Mapping[str, list[str] | None]) -> tuple[int, int, int | None]:
    return tuple(None if columns[stream] is None else len(columns[stream]) for stream in STREAMS)


def save_checkpoint(
    params: NetworkParameters,
    config: TrainConfig,
    scale: NormalizationScale,
    column_scales: Mapping[str, NormalizationScale | None],
    columns: Mapping[str, list[str] | None],
) -> str:
    """Serialize model, config, and normalization state to versioned JSON.
    `config` and `columns` must describe the model, as they do in training."""
    if model_shape(_widths(columns), config) != params.shape:
        raise ValueError(f"config and columns describe another model than {params.shape}")
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": config,
        "scale": scale,
        "column_scales": dict(column_scales),
        "columns": dict(columns),
        "vector": base64.b64encode(params.vector.astype("<f8").tobytes()).decode("ascii"),
    }
    return json.dumps(doc, indent=1, default=errors.fields_or_str) + "\n"


def _stream_columns(raw) -> dict[str, list[str] | None]:
    """The stored column names per stream: a non-empty list of strings each,
    or null for an ablated sentiment stream."""
    if not isinstance(raw, dict) or set(raw) != set(STREAMS):
        raise CheckpointError(f"columns must be an object with keys {', '.join(STREAMS)}, got {raw!r}")
    for stream in STREAMS:
        names = raw[stream]
        if names is None and stream == "sentiment":
            continue
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            raise CheckpointError(f"{stream} columns must be a non-empty list of strings, got {names!r}")
    return raw


def _load_params(shape: ModelShape, raw) -> NetworkParameters:
    """The parameters of `shape`, filled from the stored base64 vector."""
    params = NetworkParameters(shape)
    if not isinstance(raw, str):
        raise CheckpointError(f"stored vector must be a base64 string, got {type(raw).__name__}")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:
        raise CheckpointError(f"stored vector is not valid base64: {exc}") from None
    if len(data) != 8 * params.vector.size:
        raise CheckpointError(f"stored vector holds {len(data)} bytes, the model needs {8 * params.vector.size}")
    params.vector[...] = np.frombuffer(data, dtype="<f8")
    return params


def load_checkpoint(text: str) -> Checkpoint:
    """Parse a checkpoint produced by `save_checkpoint`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")
    version = doc.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported schema_version {version!r}; this build reads version "
            f"{CHECKPOINT_SCHEMA_VERSION} only: retrain the model to write a new checkpoint"
        )
    try:
        config = TrainConfig(**doc["config"])
        scale = NormalizationScale(**doc["scale"])
        columns = _stream_columns(doc["columns"])
        params = _load_params(model_shape(_widths(columns), config), doc["vector"])
        stored = doc["column_scales"]
        column_scales = {name: None if s is None else NormalizationScale(**s) for name, s in stored.items()}
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError, DataError) as exc:
        raise CheckpointError(f"invalid checkpoint contents: {exc!r}") from None
    return Checkpoint(params=params, config=config, scale=scale, column_scales=column_scales, columns=columns)
