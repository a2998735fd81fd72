"""Root-mean-squared-error objective, Adam optimizer, full-batch training
loop, and checkpoint persistence.
"""

from __future__ import annotations

import base64
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Mapping

import numpy as np

from . import forked, network
from .errors import CheckpointError, ConfigError, DataError, DivergenceError, enforce_field_types, require_finite
from .market_data import NormalizationScale, WindowedDataset
from .network import (
    CELLS,
    ForwardCache,
    ModelShape,
    NetworkParameters,
    backward_batch,
    forward_batch,
    init_parameters,
    mean_forget_activation,
)

CHECKPOINT_SCHEMA_VERSION = 4
STREAMS = ("fundamental", "technical", "sentiment")


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


def rmse_gradient(predictions: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """d rmse / d predictions; defined as zero at zero loss, where the
    square root is not differentiable (training has converged)."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    cost = rmse(p, t)
    if cost == 0.0:
        return np.zeros_like(p)
    return (p - t) / (p.size * cost)


def adam_step(
    params: NetworkParameters, grads: NetworkParameters, m: np.ndarray, v: np.ndarray, t: int, config: TrainConfig
) -> None:
    """One bias-corrected Adam update of the whole parameter vector, in
    place on `params.vector`, `m` and `v`:

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
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
    step = config.learning_rate * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + config.epsilon)
    params.vector -= step


def model_shape(widths: tuple[int, int, int | None], config: TrainConfig) -> ModelShape:
    """The model `config` builds on streams of these widths: fundamental,
    technical, and sentiment (None without the stream)."""
    d_a, d_f, d_s = widths
    return ModelShape(cell=config.cell, d_a=d_a, d_f=d_f, d_s=d_s, d_i=config.d_i,
                      layers=config.layers, hidden=config.hidden_size)


def evaluate(
    dataset: WindowedDataset, params: NetworkParameters | ForwardCache
) -> tuple[ForwardCache | None, float | None]:
    """The forward pass over all windows and its RMSE; both None when empty.
    `params` may be a cache of the model to run into (see `forward_batch`)."""
    if dataset.n_windows == 0:
        return None, None
    cache = forward_batch(dataset.streams, params)
    return cache, rmse(cache.predictions, dataset.labels)


@dataclass(frozen=True)
class TrainingRun:
    """Per-epoch training cost, final metrics, and the trained parameters.
    `test_mean_forget` is the mean forget-gate activation of the final test
    pass: None for a plain recurrent cell or an empty test split."""

    epoch_rmse: tuple[float, ...]
    train_rmse: float
    test_rmse: float | None
    test_mean_forget: float | None
    wall_seconds: float
    config: TrainConfig
    parameters: NetworkParameters


SHARD_WINDOWS = 512


def _near_equal(n: int, parts: int) -> list[range]:
    """0..n-1 as `parts` contiguous ranges of near-equal length, the longer first."""
    size, longer = divmod(n, parts)
    edges = [j * size + min(j, longer) for j in range(parts + 1)]
    return [range(start, stop) for start, stop in zip(edges, edges[1:])]


def shard_bounds(n_windows: int) -> list[range]:
    """The window ranges of ceil(n / SHARD_WINDOWS) contiguous shards of
    near-equal size, the longer first: 831 windows are 416 + 415."""
    return _near_equal(n_windows, -(-n_windows // SHARD_WINDOWS))


class _Shards:
    """The training shards one process owns, in shard order, each with the
    forward cache it runs into every epoch, and the parameters they run on:
    the caller's, or a forked helper's copy, which each request overwrites."""

    def __init__(self, streams: tuple, shards: list[range], params: NetworkParameters):
        self.params = params
        self.streams = [tuple(None if s is None else s[shard.start : shard.stop] for s in streams) for shard in shards]
        self.caches: list[ForwardCache | None] = [None] * len(shards)

    def forward(self) -> list[np.ndarray]:
        for k, streams in enumerate(self.streams):
            cache = self.caches[k]
            self.caches[k] = forward_batch(streams, self.params if cache is None else cache)
        return [cache.predictions for cache in self.caches]

    def backward(self, d_predictions: list[np.ndarray]) -> list[NetworkParameters]:
        return [backward_batch(cache, d) for cache, d in zip(self.caches, d_predictions)]

    def serve(self, conn) -> None:
        """A forked helper's loop until the caller closes its end: a
        parameter vector asks for the forward pass, whose predictions go
        back, and a list of prediction gradients for the backward pass of
        the last forward, whose gradient vectors go back."""
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            if isinstance(request, np.ndarray):
                self.params.vector[...] = request
                conn.send(self.forward())
            else:
                conn.send([grads.vector for grads in self.backward(request)])


class _ShardedBatch:
    """The training split as shards, run by the caller and its helpers, each
    process on a contiguous group of shards (the caller's is the first).
    Predictions join, and gradients sum, in shard order, so the results
    depend on the shard layout alone."""

    def __init__(self, split: WindowedDataset, params: NetworkParameters, helpers: forked.Helpers | None):
        self.shards = shard_bounds(split.n_windows)
        processes = 1 + (0 if helpers is None else forked.helper_count(len(self.shards)))
        self.groups = _near_equal(len(self.shards), processes)
        self.helpers = [
            helpers.start(_Shards(split.streams, self.shards[group.start : group.stop], params).serve)
            for group in self.groups[1:]
        ]
        self.own = _Shards(split.streams, self.shards[: self.groups[0].stop], params)

    def predictions(self) -> np.ndarray:
        """Every training window's prediction at the current parameters."""
        for helper in self.helpers:
            helper.conn.send(self.own.params.vector)
        parts = self.own.forward()
        for helper in self.helpers:
            parts += helper.recv("its shards")
        return np.concatenate(parts)

    def gradient(self, d_predictions: np.ndarray) -> NetworkParameters:
        """The gradient of the last `predictions` pass from each window's
        prediction gradient: the shards' gradients summed in shard order."""
        pieces = [d_predictions[shard.start : shard.stop] for shard in self.shards]
        for helper, group in zip(self.helpers, self.groups[1:]):
            helper.conn.send(pieces[group.start : group.stop])
        total, *own = self.own.backward(pieces[: self.groups[0].stop])
        vectors = [grads.vector for grads in own]
        for helper in self.helpers:
            vectors += helper.recv("its shards")
        for vector in vectors:
            total.vector += vector
        return total


def _fit(
    split: WindowedDataset, params: NetworkParameters, config: TrainConfig, fork_helpers: bool
) -> tuple[list[float], float]:
    """Every epoch of Adam on the training split, in place on `params`, then
    the split's RMSE at the trained parameters: the per-epoch costs and the
    final one. The shard caches are freed when it returns."""
    m = np.zeros_like(params.vector)
    v = np.zeros_like(params.vector)
    epoch_rmse: list[float] = []
    with forked.Helpers("training") as helpers:
        batch = _ShardedBatch(split, params, helpers if fork_helpers else None)
        for epoch in range(config.epochs):
            try:
                predictions = batch.predictions()
                cost = rmse(predictions, split.labels)
                if not math.isfinite(cost):
                    raise DivergenceError("non-finite loss")
                epoch_rmse.append(cost)
                grads = batch.gradient(rmse_gradient(predictions, split.labels))
                adam_step(params, grads, m, v, epoch + 1, config)
            except DivergenceError as exc:
                raise DivergenceError(f"diverged at epoch {epoch}: {exc}", epoch=epoch) from None
        return epoch_rmse, rmse(batch.predictions(), split.labels)


def train(
    dataset: WindowedDataset,
    config: TrainConfig,
    timer: Callable[[], float] = time.perf_counter,
    *,
    fork_helpers: bool = True,
) -> TrainingRun:
    """Full-batch training: each epoch forwards every training window,
    backpropagates the RMSE cost, and takes one Adam step. Deterministic
    per (dataset, config).

    The training windows run as `shard_bounds` shards of at most
    SHARD_WINDOWS windows each, in the caller and in
    `forked.helper_count(shards)` forked helpers: synchronous data
    parallelism (Dean et al. 2012), since the windows are independent
    columns and the full-batch gradient is the sum of the shards'. Each
    epoch the caller sends out the parameter vector, joins the shards'
    predictions in shard order for the RMSE and its gradient, sends each
    helper its slices of that gradient, and sums the shards' parameter
    gradients in shard order before the one Adam step. The bits depend on
    the window count, which fixes the shards, never on the CPU count: with
    one usable CPU, or with `fork_helpers` false (a grid cell, which runs
    in a process of its own already), the caller runs every shard itself
    and gets the same bytes. Up to SHARD_WINDOWS training windows are one
    shard, the whole batch, as an unsharded run.

    Each process holds one set of activation buffers per shard it owns: the
    fused input and every step's gates and c, but neither h nor tanh(c),
    which the backward pass recomputes (a tanh layer holds its states). The
    Adam step updates the parameter vector in place, so each epoch's
    forward, and the final train-split evaluation, runs into the previous
    epoch's cache (`forward_batch(streams, cache)`): the same calls as with
    fresh arrays, the same bits, and one cache per shard alive instead of
    two. The test split is evaluated in the caller, into arrays of its own,
    once the shard caches are freed.
    """
    if config.window != dataset.window:
        raise ConfigError(f"config window {config.window} != dataset window {dataset.window}")
    train_split = dataset.train
    if train_split.n_windows == 0:
        raise DataError("empty training split")

    started = timer()
    widths = tuple(None if stream is None else stream.shape[2] for stream in dataset.streams)
    params = init_parameters(model_shape(widths, config), config.seed, config.forget_bias)
    epoch_rmse, train_cost = _fit(train_split, params, config, fork_helpers)
    test_cache, test_cost = evaluate(dataset.test, params)
    if not all(math.isfinite(c) for c in (train_cost, test_cost) if c is not None):
        raise DivergenceError(f"diverged at epoch {config.epochs}: non-finite final RMSE", epoch=config.epochs)
    return TrainingRun(
        epoch_rmse=tuple(epoch_rmse),
        train_rmse=float(train_cost),
        test_rmse=None if test_cost is None else float(test_cost),
        test_mean_forget=None if test_cache is None or config.cell != network.LSTM
        else mean_forget_activation(test_cache),
        wall_seconds=timer() - started,
        config=config,
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


def _scale_doc(scale: NormalizationScale | None):
    return None if scale is None else {"min": scale.min, "max": scale.max}


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
        "config": asdict(config),
        "scale": _scale_doc(scale),
        "column_scales": {name: _scale_doc(s) for name, s in column_scales.items()},
        "columns": dict(columns),
        "vector": base64.b64encode(params.vector.astype("<f8").tobytes()).decode("ascii"),
    }
    return json.dumps(doc, indent=1) + "\n"


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
