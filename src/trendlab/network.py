"""Recurrent layers, stacked sequence evaluation, and exact backpropagation
through time.

Two cell types share the sequence-evaluation contract: the gated memory cell

    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)        (likewise i_t, o_t)
    c_t = f_t * c_{t-1} + i_t * tanh(W_c x_t + U_c h_{t-1} + b_c)
    h_t = o_t * tanh(c_t)

and the plain tanh recurrence s_t = tanh(U x_t + W s_{t-1}). A stack of
layers reads the fused feature streams, and an affine head maps the top
layer's final hidden state to the scalar next-step prediction. The backward
pass is exact reverse-mode differentiation through the whole unrolled
window, including the stream projections, with no truncation.

A memory-cell layer stores its four gates stacked, in f, i, o, c order: one
W (4h x d), one U (4h x h) and one b (4h), so each step's four gate
pre-activations are one GEMM (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946). `NetworkParameters.param_items` names the per-gate row
blocks `layers.k.W_f`, `layers.k.U_i`, ... and hands them out as views.
Every stored array is itself a view of the model's one float64 `vector`, so
a write to a named block (a finite-difference probe, a checkpoint load) or
to the vector (the Adam step) writes the arrays the kernel reads. Gradients
come back as a model of the same shape: each at its parameter's index.

A forward pass writes every (T, ., n) activation (the fused input, and per
layer the stacked (T, 4h, n) gate buffer, h, c and tanh(c), or a tanh
layer's states) into arrays it allocates, or, given a cache in place of the
parameters, into that cache's arrays, as Appleyard et al. preallocate
theirs. The cache stands for its own model, so the only check is that it
covers the same window count and step count as the streams; any other raises
ValueError, with no fallback to fresh arrays. The same ufunc and BLAS calls
run in the same order, only into other destinations, so the results are
bit-identical to a fresh forward's, and the cache given is stale afterwards.
Full-batch training runs each epoch into the last epoch's cache, so a run
holds one set of activations, the memory that dominates exact BPTT (Chen et
al. 2016, arXiv:1604.06174), instead of two.

A memory-cell layer's cache holds its gates, c and tanh(c) at one of two
depths: every step (depth T, what a forward allocates and what the backward
pass and the forget-gate mean read), or the last step only (depth 1, from
`last_step_cache`, for predictions; those two readers refuse it). h keeps
every step at both depths, since it is the next layer's input. Step t sits
at row t % depth, and the inputs of each block of depth steps are projected
by one GEMM as the block begins. At depth T that is the whole window's
projection before step 0, as in training; at depth 1 a step's projection is
made just before the step reads it, while it is still in cache. Each step's
input projection is the same GEMM on the same slice at either depth, so the
predictions are bit-identical.

Everything is float64 and deterministic: identical inputs and parameters
give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .fusion import FusionParameters, default_width

LSTM = "lstm"
RNN = "rnn"
CELLS = (LSTM, RNN)

GATES = ("f", "i", "o", "c")


@dataclass
class LstmLayerParameters:
    """Gate-stacked input weights W (4h x input), recurrent weights U
    (4h x h) and biases b (4h). Gate g in f, i, o, c (index j) owns rows
    [j*h, (j+1)*h) of all three; `gate_blocks` names those row blocks and
    returns them as views, so writing a block writes the stacked array.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.W.shape[0] == 0 or self.W.shape[0] % len(GATES):
            raise ValueError(f"W shape {self.W.shape} is not (4 * hidden, input)")
        rows = self.W.shape[0]
        if self.U.shape != (rows, rows // len(GATES)):
            raise ValueError(f"U shape {self.U.shape} != ({rows}, {rows // len(GATES)})")
        if self.b.shape != (rows,):
            raise ValueError(f"b shape {self.b.shape} != ({rows},)")

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // len(GATES)

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    def gate_blocks(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """(name, view) per gate row block, W_g, U_g, b_g for g in f, i, o, c."""
        hid = self.hidden_size
        items = []
        for j, g in enumerate(GATES):
            rows = slice(j * hid, (j + 1) * hid)
            items += [(f"{prefix}W_{g}", self.W[rows]), (f"{prefix}U_{g}", self.U[rows]),
                      (f"{prefix}b_{g}", self.b[rows])]
        return items


@dataclass
class RnnLayerParameters:
    """Input weights U (hidden x input) and recurrent weights W (hidden x
    hidden) of the bias-free tanh recurrence.
    """

    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        if self.W.shape != (self.U.shape[0], self.U.shape[0]):
            raise ValueError(f"recurrent weights {self.W.shape} inconsistent with {self.U.shape}")

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

    @property
    def input_size(self) -> int:
        return self.U.shape[1]


@dataclass
class HeadParameters:
    """Affine regression head: hidden state -> scalar prediction."""

    w: np.ndarray
    b: np.ndarray  # 0-d array, so that it can be a view of one vector element

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.shape != ():
            raise ValueError("head bias must be a scalar")


@dataclass(frozen=True)
class ModelShape:
    """Static shape description used to build parameters."""

    cell: str = LSTM
    d_a: int = 3
    d_f: int = 3
    d_s: int | None = 1
    d_i: int | None = None
    layers: int = 3
    hidden: int = 32

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}")
        if min(self.d_a, self.d_f, self.layers, self.hidden) < 1:
            raise ValueError("all shape fields must be positive")
        if self.d_s is not None and self.d_s < 1:
            raise ValueError("d_s must be positive or None")
        if self.d_i is not None and self.d_i < 1:
            raise ValueError("d_i must be positive or None")

    @property
    def width(self) -> int:
        return self.d_i if self.d_i is not None else default_width(self.d_a, self.d_f, self.d_s)

    @property
    def fused_dim(self) -> int:
        return (3 if self.d_s is not None else 2) * self.width


@dataclass
class NetworkParameters:
    """All trainable parameters: fusion projections, cell layers, head.

    The model owns copies of the parts it is given. Their arrays are views
    of `vector`, laid out in storage order: the fusion projections, each
    layer, then the head, each part in its field order (a memory-cell layer
    as its stacked W, U, b).
    """

    cell: str
    fusion: FusionParameters
    layers: list[LstmLayerParameters | RnnLayerParameters]
    head: HeadParameters
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}")
        layer_type = LstmLayerParameters if self.cell == LSTM else RnnLayerParameters
        size = self.fusion.fused_dim
        for k, layer in enumerate(self.layers):
            if not isinstance(layer, layer_type):
                raise ValueError(f"layer {k} is {type(layer).__name__}, not a {self.cell!r} layer")
            if layer.input_size != size:
                raise ValueError(f"layer {k} input size {layer.input_size} != expected {size}")
            size = layer.hidden_size
        if self.head.w.shape != (size,):
            raise ValueError(f"head weights {self.head.w.shape} != ({size},)")
        self.fusion, self.head = replace(self.fusion), replace(self.head)
        self.layers = [replace(layer) for layer in self.layers]
        self._bind_to_vector()

    def _bind_to_vector(self) -> None:
        """Copy every stored array into one new vector, in storage order,
        and rebind each field to its slice of it."""
        stored = [
            (part, f.name) for part in (self.fusion, *self.layers, self.head)
            for f in fields(part) if getattr(part, f.name) is not None
        ]
        arrays = [getattr(part, name) for part, name in stored]
        self.vector = np.concatenate([array.ravel() for array in arrays], dtype=np.float64)
        slices = np.split(self.vector, np.cumsum([array.size for array in arrays])[:-1])
        for (part, name), array, piece in zip(stored, arrays, slices):
            setattr(part, name, piece.reshape(array.shape))

    def zeros_like(self) -> NetworkParameters:
        """A model of the same shape, over its own all-zero vector."""
        zeros = replace(self)
        zeros.vector[...] = 0.0
        return zeros

    @property
    def hidden_size(self) -> int:
        return self.layers[-1].hidden_size

    @property
    def shape(self) -> ModelShape:
        fusion = self.fusion
        return ModelShape(
            cell=self.cell, d_a=fusion.W_A.shape[1], d_f=fusion.W_F.shape[1],
            d_s=fusion.W_S.shape[1] if fusion.has_sentiment else None, d_i=fusion.d_i,
            layers=len(self.layers), hidden=self.hidden_size,
        )

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Canonical (name, array) pairs. The arrays are views of `vector`,
        and together they cover it once."""
        items = [("fusion.W_A", self.fusion.W_A), ("fusion.b_A", self.fusion.b_A),
                 ("fusion.W_F", self.fusion.W_F), ("fusion.b_F", self.fusion.b_F)]
        if self.fusion.has_sentiment:
            items += [("fusion.W_S", self.fusion.W_S), ("fusion.b_S", self.fusion.b_S)]
        for k, layer in enumerate(self.layers):
            if isinstance(layer, LstmLayerParameters):
                items += layer.gate_blocks(f"layers.{k}.")
            else:
                items += [(f"layers.{k}.U", layer.U), (f"layers.{k}.W", layer.W)]
        items += [("head.w", self.head.w), ("head.b", self.head.b)]
        return items

    def param_dict(self) -> dict[str, np.ndarray]:
        return dict(self.param_items())


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), in place on `z`, which it
    returns. exp(-z) overflows to inf for z below about -745; the result is
    then exactly 0, the correct limit, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
    return z


def init_parameters(shape: ModelShape, seed: int, forget_bias: float = 1.0) -> NetworkParameters:
    """Seeded Glorot-uniform weights, zero biases except the forget-gate
    bias, which starts at `forget_bias` so fresh cells retain their memory.
    """
    rng = np.random.default_rng(seed)

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    return _build_parameters(shape, glorot, forget_bias)


def zero_parameters(shape: ModelShape) -> NetworkParameters:
    """All-zero weights and biases, drawn from no generator."""
    return _build_parameters(shape, lambda *dims: np.zeros(dims), 0.0)


def _build_parameters(shape: ModelShape, weights: Callable, forget_bias: float) -> NetworkParameters:
    """A model of `shape`, each weight matrix made by `weights(fan_out, fan_in)` in a fixed order."""
    width = shape.width
    fusion = FusionParameters(
        W_A=weights(width, shape.d_a), b_A=np.zeros(width),
        W_F=weights(width, shape.d_f), b_F=np.zeros(width),
        W_S=weights(width, shape.d_s) if shape.d_s is not None else None,
        b_S=np.zeros(width) if shape.d_s is not None else None,
    )

    layers: list[LstmLayerParameters | RnnLayerParameters] = []
    size = shape.fused_dim
    hid = shape.hidden
    for _ in range(shape.layers):
        if shape.cell == LSTM:
            # Draws W_f, U_f, W_i, U_i, W_o, U_o, W_c, U_c in turn; a seed's
            # values depend on that order.
            W, U = map(np.concatenate, zip(*[(weights(hid, size), weights(hid, hid)) for _ in GATES]))
            b = np.zeros(4 * hid)
            b[:hid] = forget_bias
            layers.append(LstmLayerParameters(W, U, b))
        else:
            layers.append(RnnLayerParameters(U=weights(shape.hidden, size), W=weights(shape.hidden, shape.hidden)))
        size = shape.hidden

    head = HeadParameters(w=weights(1, shape.hidden)[0], b=np.zeros(()))
    return NetworkParameters(shape.cell, fusion, layers, head)


# ---------------------------------------------------------------------------
# Batched sequence evaluation with cached activations for BPTT.
# Windows are evaluated together: stream arrays are (batch, steps, dim), and
# every layer tensor is batch-last, (steps, features, batch). With the batch
# on the last axis, a gate pre-activation is W x_t + U h_{t-1}, shape
# (4h, batch), and each gate owns one contiguous block of rows: [0:h] forget,
# [h:2h] input, [2h:3h] output, [3h:4h] candidate. Elementwise work on a
# contiguous block is several times faster than on the strided column slices
# of a batch-first (batch, 4h) array, and the per-step GEMMs write straight
# into those blocks. State starts at zero for every window; windows are
# independent samples.
# ---------------------------------------------------------------------------


@dataclass
class _LstmLayerCache:
    x: np.ndarray        # (T, D, n) layer inputs: the fused input or the layer below's h
    gates: np.ndarray    # (depth, 4H, n) gate activations, row blocks f, i, o, g
    h: np.ndarray        # (T, H, n) hidden states
    c: np.ndarray        # (depth, H, n) cell states
    tanh_c: np.ndarray   # (depth, H, n)

    @property
    def depth(self) -> int:
        """Steps held by gates, c and tanh_c: T, or 1 for the last step only."""
        return self.gates.shape[0]

    def _gate(self, j: int) -> np.ndarray:
        hid = self.h.shape[1]
        return self.gates[:, j * hid : (j + 1) * hid]

    f = property(lambda self: self._gate(0))
    i = property(lambda self: self._gate(1))
    o = property(lambda self: self._gate(2))
    g = property(lambda self: self._gate(3))  # candidate activations tanh(.)

    @property
    def hidden(self) -> np.ndarray:
        return self.h


@dataclass
class _RnnLayerCache:
    x: np.ndarray
    s: np.ndarray        # (T, H, n)

    @property
    def hidden(self) -> np.ndarray:
        return self.s


def _owned(lc: _LstmLayerCache | _RnnLayerCache) -> list[np.ndarray]:
    """The arrays a layer cache writes: every field but its input x."""
    return [getattr(lc, f.name) for f in fields(lc)[1:]]


@dataclass
class ForwardCache:
    """Everything the backward pass needs, plus the predictions; a cache
    from `last_step_cache` holds only what the predictions need."""

    params: NetworkParameters
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None]  # (n, T, d) each
    layers: list[_LstmLayerCache | _RnnLayerCache]
    predictions: np.ndarray  # (n,)

    @property
    def n_windows(self) -> int:
        return self.predictions.shape[0]

    @property
    def steps(self) -> int:
        return self.layers[0].x.shape[0]

    def buffers(self) -> list[np.ndarray]:
        """The activation arrays a forward pass writes: the fused input,
        then each layer's, in order. Another forward given this cache in
        place of the parameters overwrites exactly these."""
        return [self.layers[0].x] + [a for lc in self.layers for a in _owned(lc)]

    def _require_every_step(self, reader: str) -> None:
        if any(isinstance(lc, _LstmLayerCache) and lc.depth < self.steps for lc in self.layers):
            raise ValueError(f"{reader} needs every step's gates, and this cache keeps only the last step")


def _empty_cache(params: NetworkParameters, n: int, steps: int, depth: int) -> ForwardCache:
    """A cache of `params` over new uninitialised arrays for n windows of
    `steps` steps, each memory-cell layer holding gates, c and tanh(c) at
    `depth` steps (`steps` or 1). Its predictions are NaN until a forward
    runs into it."""
    x = np.empty((steps, params.fusion.fused_dim, n))
    layers: list[_LstmLayerCache | _RnnLayerCache] = []
    for layer in params.layers:
        hid = layer.hidden_size
        if isinstance(layer, LstmLayerParameters):
            lc = _LstmLayerCache(x, np.empty((depth, 4 * hid, n)), np.empty((steps, hid, n)),
                                 np.empty((depth, hid, n)), np.empty((depth, hid, n)))
        else:
            lc = _RnnLayerCache(x, np.empty((steps, hid, n)))
        layers.append(lc)
        x = lc.hidden
    return ForwardCache(params, (), layers, np.full(n, np.nan))


def last_step_cache(params: NetworkParameters, n_windows: int, steps: int) -> ForwardCache:
    """A cache of `params` to forward n_windows windows of `steps` steps
    into, for predictions only: each memory-cell layer keeps one step of
    gates, c and tanh(c), so the backward pass and the forget-gate mean
    refuse the result."""
    return _empty_cache(params, n_windows, steps, depth=1)


def _as_batch(stream: np.ndarray, name: str, expected_dim: int) -> np.ndarray:
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} stream must be (batch, steps, dim), got shape {arr.shape}")
    if arr.shape[2] != expected_dim:
        raise ValueError(f"{name} stream dim {arr.shape[2]} != expected {expected_dim}")
    return arr


def _fuse_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None], fusion: FusionParameters, out: np.ndarray
) -> None:
    """Writes the fused layer input, batch-last (T, D, n), into `out`: each
    stream's projection fills its block of D."""
    width = fusion.d_i
    for j, (stream, (W, b)) in enumerate(zip(streams, fusion.projections())):
        block = out[:, j * width : (j + 1) * width]
        np.matmul(W, stream.transpose(1, 2, 0), out=block)
        block += b[:, None]


def _lstm_forward(lc: _LstmLayerCache, layer: LstmLayerParameters) -> None:
    """Fills the cache's gates, h, c and tanh_c from its input x. Step t
    lives at row t % depth of the depth-deep arrays; the inputs of each
    block of depth steps are projected in one GEMM as the block begins."""
    steps, hid, n = lc.h.shape
    A, H, C, TC = lc.gates, lc.h, lc.c, lc.tanh_c
    depth = lc.depth
    rec = np.empty((4 * hid, n))
    for t in range(steps):
        k = t % depth
        if k == 0:
            np.matmul(layer.W, lc.x[t : t + depth], out=A)   # (depth, 4H, n)
            A += layer.b[:, None]
        act = A[k]
        if t > 0:
            np.matmul(layer.U, H[t - 1], out=rec)
            act += rec
        _sigmoid_(act[: 3 * hid])
        np.tanh(act[3 * hid :], out=act[3 * hid :])
        f, i, o, g = act[:hid], act[hid : 2 * hid], act[2 * hid : 3 * hid], act[3 * hid :]
        if t > 0:
            np.multiply(f, C[(t - 1) % depth], out=C[k])
            C[k] += i * g
        else:
            np.multiply(i, g, out=C[k])
        np.tanh(C[k], out=TC[k])
        np.multiply(o, TC[k], out=H[t])


def _rnn_forward(lc: _RnnLayerCache, layer: RnnLayerParameters) -> None:
    """Fills the cache's states s from its input x."""
    S = lc.s
    np.matmul(layer.U, lc.x, out=S)                      # (T, H, n)
    rec = np.empty(S.shape[1:])
    for t in range(S.shape[0]):
        if t > 0:
            np.matmul(layer.W, S[t - 1], out=rec)
            S[t] += rec
        np.tanh(S[t], out=S[t])


def forward_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None], params: NetworkParameters | ForwardCache
) -> ForwardCache:
    """Evaluate every window in the batch; returns predictions plus the
    cached activations required for an exact backward pass.

    A cache given in place of `params` stands for its own model and
    buffers: every activation is written into its arrays, and the cache
    returned is over them. The given cache is stale afterwards, and holds
    partial values if the call raises. It must cover as many windows and
    steps as the streams, or ValueError is raised. A loop that updates the
    parameter vector in place can so run each step into the last step's cache.
    A cache from `last_step_cache` gives the same predictions, but keeps
    too little for the backward pass.
    """
    into = None
    if isinstance(params, ForwardCache):
        params, into = params.params, params
    a = _as_batch(streams[0], "fundamental", params.fusion.W_A.shape[1])
    f = _as_batch(streams[1], "technical", params.fusion.W_F.shape[1])
    if params.fusion.has_sentiment:
        if streams[2] is None:
            raise ValueError("parameters expect a sentiment stream but none was given")
        s = _as_batch(streams[2], "sentiment", params.fusion.W_S.shape[1])
        if s.shape[:2] != a.shape[:2]:
            raise ValueError("stream batch/step shapes differ")
    else:
        s = None
    if f.shape[:2] != a.shape[:2]:
        raise ValueError("stream batch/step shapes differ")
    if a.shape[1] < 1:
        raise ValueError("window must contain at least one step")

    if into is None:
        into = _empty_cache(params, a.shape[0], a.shape[1], depth=a.shape[1])
    elif (into.n_windows, into.steps) != a.shape[:2]:
        raise ValueError(f"cache holds {into.n_windows} windows of {into.steps} steps, the streams {a.shape[:2]}")

    _fuse_batch((a, f, s), params.fusion, into.layers[0].x)
    for lc, layer in zip(into.layers, params.layers):
        (_lstm_forward if isinstance(lc, _LstmLayerCache) else _rnn_forward)(lc, layer)

    predictions = params.head.w @ into.layers[-1].hidden[-1] + float(params.head.b)
    if not np.all(np.isfinite(predictions)):
        raise DivergenceError("non-finite prediction in forward pass")
    return ForwardCache(params=params, streams=(a, f, s), layers=list(into.layers), predictions=predictions)


def _lstm_backward(
    lc: _LstmLayerCache, layer: LstmLayerParameters, d_h_extra: np.ndarray, grad: LstmLayerParameters
) -> np.ndarray:
    """Accumulates the layer's gradients into `grad`'s (zero) arrays and
    returns the gradient with respect to the layer input."""
    steps, hid, n = lc.h.shape
    dW, dU, db = grad.W, grad.U, grad.b
    dx = np.empty_like(lc.x)
    dA = np.empty((4 * hid, n))
    dF, dI, dO, dG = dA[:hid], dA[hid : 2 * hid], dA[2 * hid : 3 * hid], dA[3 * hid :]
    dh_rec = np.zeros((hid, n))
    dc_rec = np.zeros((hid, n))
    F, I, O, G = lc.f, lc.i, lc.o, lc.g
    for t in range(steps - 1, -1, -1):
        f, i, o, g, tc = F[t], I[t], O[t], G[t], lc.tanh_c[t]
        dh = d_h_extra[t] + dh_rec
        dc = dc_rec + dh * o * (1.0 - tc**2)
        if t > 0:
            np.multiply(dc, lc.c[t - 1], out=dF)
            dF *= f
            dF *= 1.0 - f
        else:
            dF[...] = 0.0
        np.multiply(dc, g, out=dI)
        dI *= i
        dI *= 1.0 - i
        np.multiply(dh, tc, out=dO)
        dO *= o
        dO *= 1.0 - o
        np.multiply(dc, i, out=dG)
        dG *= 1.0 - g**2
        dW += dA @ lc.x[t].T
        if t > 0:
            dU += dA @ lc.h[t - 1].T
        db += dA.sum(axis=1)
        np.matmul(layer.W.T, dA, out=dx[t])
        dh_rec = layer.U.T @ dA
        dc_rec = dc * f
    return dx


def _rnn_backward(
    lc: _RnnLayerCache, layer: RnnLayerParameters, d_h_extra: np.ndarray, grad: RnnLayerParameters
) -> np.ndarray:
    """Like `_lstm_backward`, for a tanh layer."""
    steps, hid, n = lc.s.shape
    dU, dW = grad.U, grad.W
    dx = np.empty_like(lc.x)
    ds_rec = np.zeros((hid, n))
    for t in range(steps - 1, -1, -1):
        da = d_h_extra[t] + ds_rec
        da *= 1.0 - lc.s[t] ** 2
        dU += da @ lc.x[t].T
        if t > 0:
            dW += da @ lc.s[t - 1].T
        np.matmul(layer.U.T, da, out=dx[t])
        ds_rec = layer.W.T @ da
    return dx


def backward_batch(cache: ForwardCache, d_predictions: np.ndarray) -> NetworkParameters:
    """Exact gradients of sum(d_predictions * predictions) with respect to
    every parameter, as a model of the same shape: each gradient sits where
    its parameter does.
    """
    cache._require_every_step("the backward pass")
    params = cache.params
    d_pred = np.asarray(d_predictions, dtype=np.float64)
    if d_pred.shape != cache.predictions.shape:
        raise ValueError(f"upstream gradient shape {d_pred.shape} != predictions {cache.predictions.shape}")
    steps = cache.steps
    n = cache.n_windows
    grads = params.zeros_like()

    grads.head.w[...] = cache.layers[-1].hidden[-1] @ d_pred
    grads.head.b[...] = d_pred.sum()

    # d_h_extra[t]: gradient flowing into h_t of the current layer from
    # outside the recurrence (head at the last step, or the layer above).
    d_h_extra = np.zeros((steps, params.hidden_size, n))
    d_h_extra[-1] = np.outer(params.head.w, d_pred)

    for lc, layer, grad in reversed(list(zip(cache.layers, params.layers, grads.layers))):
        backward = _lstm_backward if isinstance(layer, LstmLayerParameters) else _rnn_backward
        d_h_extra = backward(lc, layer, d_h_extra, grad)

    # d_h_extra now holds the gradient wrt the fused input (T, D, n).
    width = params.fusion.d_i
    for j, (stream, (dW, db)) in enumerate(zip(cache.streams, grads.fusion.projections())):
        d_proj = d_h_extra[:, j * width : (j + 1) * width]
        dW[...] = np.einsum("tin,ntj->ij", d_proj, stream)
        db[...] = d_proj.sum(axis=(0, 2))
    return grads


def mean_forget_activation(cache: ForwardCache) -> float:
    """Arithmetic mean of every forget-gate activation in the cache, all
    windows, layers, steps and units weighted equally. The values are
    summed in window, layer, step, unit order, which fixes the last bits
    of the result."""
    cache._require_every_step("the forget-gate mean")
    forget = [lc.f for lc in cache.layers if isinstance(lc, _LstmLayerCache)]
    if not forget:
        raise ValueError("the cache holds no forget gates")
    return float(np.stack(forget).transpose(3, 0, 1, 2).ravel().mean())
