"""Root-mean-squared-error objective, Adam optimizer, full-batch training
loop, finite-difference gradient checking, and checkpoint persistence.
"""

from __future__ import annotations

import base64
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import network
from .errors import CheckpointError, ConfigError, DataError, DivergenceError, enforce_field_types
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
    zero_parameters,
)

CHECKPOINT_SCHEMA_VERSION = 3


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
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
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


def model_shape(dataset: WindowedDataset, config: TrainConfig) -> ModelShape:
    return ModelShape(
        cell=config.cell,
        d_a=dataset.fundamental.shape[2],
        d_f=dataset.technical.shape[2],
        d_s=None if dataset.sentiment is None else dataset.sentiment.shape[2],
        d_i=config.d_i,
        layers=config.layers,
        hidden=config.hidden_size,
    )


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


def train(
    dataset: WindowedDataset,
    config: TrainConfig,
    timer: Callable[[], float] = time.perf_counter,
) -> TrainingRun:
    """Full-batch training: each epoch forwards every training window,
    backpropagates the RMSE cost, and takes one Adam step. Deterministic
    per (dataset, config).

    The run holds one set of activation buffers. The Adam step updates the
    parameter vector in place, so each epoch's forward, and the final
    train-split evaluation, runs into the previous epoch's cache
    (`forward_batch(streams, cache)`): the same calls as with fresh arrays,
    the same bits, and one cache alive instead of two. The test split has
    another window count and gets its own arrays.
    """
    if config.window != dataset.window:
        raise ConfigError(f"config window {config.window} != dataset window {dataset.window}")
    train_split = dataset.train
    if train_split.n_windows == 0:
        raise DataError("empty training split")

    started = timer()
    params = init_parameters(model_shape(dataset, config), config.seed, config.forget_bias)
    m = np.zeros_like(params.vector)
    v = np.zeros_like(params.vector)
    streams = train_split.streams
    labels = train_split.labels

    epoch_rmse: list[float] = []
    cache: ForwardCache | None = None
    for epoch in range(config.epochs):
        try:
            cache = forward_batch(streams, params if cache is None else cache)
            cost = rmse(cache.predictions, labels)
            if not math.isfinite(cost):
                raise DivergenceError("non-finite loss")
            epoch_rmse.append(cost)
            grads = backward_batch(cache, rmse_gradient(cache.predictions, labels))
            adam_step(params, grads, m, v, epoch + 1, config)
        except DivergenceError as exc:
            raise DivergenceError(f"diverged at epoch {epoch}: {exc}", epoch=epoch) from None

    _, train_cost = evaluate(train_split, params if cache is None else cache)
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
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientCheckResult:
    block_errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values())

    @property
    def worst_block(self) -> str:
        return max(self.block_errors, key=self.block_errors.get)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    @property
    def failing_blocks(self) -> list[str]:
        return [k for k, e in self.block_errors.items() if e > self.tolerance]


def gradient_check(
    shape: ModelShape,
    seed: int = 0,
    tolerance: float = 1e-5,
    step: float = 1e-6,
    windows: int = 3,
    steps: int = 5,
    corrupt_block: str | None = None,
) -> GradientCheckResult:
    """Compare analytic gradients of the RMSE cost against central finite
    differences on a random instance. Reports, per parameter block, the
    relative error ||g_a - g_n|| / max(||g_a||, ||g_n||).

    `corrupt_block` deliberately perturbs one analytic block first; used to
    prove the check localizes faults.
    """
    rng = np.random.default_rng(seed)
    params = init_parameters(shape, seed)
    a = rng.uniform(-1.0, 1.0, size=(windows, steps, shape.d_a))
    f = rng.uniform(-1.0, 1.0, size=(windows, steps, shape.d_f))
    s = rng.uniform(0.0, 1.0, size=(windows, steps, shape.d_s)) if shape.d_s else None
    labels = rng.uniform(-1.0, 1.0, size=windows)
    streams = (a, f, s)

    cache = forward_batch(streams, params)
    analytic = backward_batch(cache, rmse_gradient(cache.predictions, labels))
    if corrupt_block is not None:
        blocks = analytic.param_dict()
        if corrupt_block not in blocks:
            raise ConfigError(f"unknown parameter block {corrupt_block!r}")
        blocks[corrupt_block] += 1.0

    def objective() -> float:
        return rmse(forward_batch(streams, params).predictions, labels)

    numeric = params.zeros_like()
    vector = params.vector
    for j in range(vector.size):
        original = vector[j]
        vector[j] = original + step
        up = objective()
        vector[j] = original - step
        down = objective()
        vector[j] = original
        numeric.vector[j] = (up - down) / (2.0 * step)

    block_errors: dict[str, float] = {}
    for (name, ga), (_, gn) in zip(analytic.param_items(), numeric.param_items()):
        ga, gn = ga.ravel(), gn.ravel()
        denom = max(float(np.linalg.norm(ga)), float(np.linalg.norm(gn)), 1e-12)
        block_errors[name] = float(np.linalg.norm(ga - gn)) / denom

    return GradientCheckResult(block_errors=block_errors, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Checkpoint persistence: versioned JSON, bit-exact parameter round-trips.
# The model is its ModelShape plus `NetworkParameters.vector`, stored as the
# base64 of its little-endian float64 bytes; every value, NaN, infinities,
# -0.0 and subnormals included, reads back bit for bit. The file layout is
# the vector's storage order (`NetworkParameters._bind_to_vector`), so a
# change to that order needs a schema version bump. The loader rebuilds the
# shape's model and accepts the stored vector only if it fills it exactly
# and the shape agrees with the stored training config.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    params: NetworkParameters
    config: TrainConfig
    scale: NormalizationScale
    column_scales: dict[str, NormalizationScale | None]
    columns: dict


def _scale_doc(scale: NormalizationScale | None):
    return None if scale is None else {"min": scale.min, "max": scale.max}


def save_checkpoint(
    params: NetworkParameters,
    config: TrainConfig,
    scale: NormalizationScale,
    column_scales: Mapping[str, NormalizationScale | None] | None = None,
    columns: Mapping | None = None,
) -> str:
    """Serialize model, config, and normalization state to versioned JSON."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(config),
        "scale": _scale_doc(scale),
        "column_scales": None
        if column_scales is None
        else {name: _scale_doc(s) for name, s in column_scales.items()},
        "columns": None if columns is None else dict(columns),
        "shape": asdict(params.shape),
        "vector": base64.b64encode(params.vector.astype("<f8").tobytes()).decode("ascii"),
    }
    return json.dumps(doc, indent=1) + "\n"


def _check_shape_matches_config(shape: ModelShape, config: TrainConfig) -> None:
    """The stored shape must be the one `config` builds on the stored stream widths."""
    built = replace(shape, cell=config.cell, d_i=config.d_i, layers=config.layers, hidden=config.hidden_size)
    stored = (shape.cell, shape.layers, shape.hidden, shape.width)
    wanted = (built.cell, built.layers, built.hidden, built.width)
    if stored != wanted:
        raise CheckpointError(
            f"stored model (cell, layers, hidden, d_i) {stored} disagrees with its config {wanted}"
        )


def _load_params(shape: ModelShape, raw) -> NetworkParameters:
    """The parameters of `shape`, filled from the stored base64 vector."""
    params = zero_parameters(shape)
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
        shape = ModelShape(**doc["shape"])
        _check_shape_matches_config(shape, config)
        params = _load_params(shape, doc["vector"])
        stored = doc.get("column_scales") or {}
        column_scales = {name: None if s is None else NormalizationScale(**s) for name, s in stored.items()}
        columns = doc.get("columns") or {}
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, ConfigError, DataError) as exc:
        raise CheckpointError(f"invalid checkpoint contents: {exc!r}") from None
    return Checkpoint(params=params, config=config, scale=scale, column_scales=column_scales, columns=columns)
