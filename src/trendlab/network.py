"""Recurrent cells, stacked sequence evaluation, and exact backpropagation
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

Everything is float64 and deterministic: identical inputs and parameters
give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DivergenceError
from .fusion import FusionParameters, default_width

LSTM = "lstm"
RNN = "rnn"
CELLS = (LSTM, RNN)

GATES = ("f", "i", "o", "c")


@dataclass
class LstmLayerParameters:
    """Per-gate input weights W_g (hidden x input), recurrent weights U_g
    (hidden x hidden), and biases b_g (hidden), for g in f, i, o, c.
    """

    W_f: np.ndarray
    U_f: np.ndarray
    b_f: np.ndarray
    W_i: np.ndarray
    U_i: np.ndarray
    b_i: np.ndarray
    W_o: np.ndarray
    U_o: np.ndarray
    b_o: np.ndarray
    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray

    def __post_init__(self):
        h, d = self.W_f.shape
        for g in GATES:
            if getattr(self, f"W_{g}").shape != (h, d):
                raise ValueError(f"W_{g} shape mismatch")
            if getattr(self, f"U_{g}").shape != (h, h):
                raise ValueError(f"U_{g} shape mismatch")
            if getattr(self, f"b_{g}").shape != (h,):
                raise ValueError(f"b_{g} shape mismatch")

    @property
    def hidden_size(self) -> int:
        return self.W_f.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_f.shape[1]

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gate-stacked views (4h x d, 4h x h, 4h) in f, i, o, c order."""
        W = np.concatenate([self.W_f, self.W_i, self.W_o, self.W_c])
        U = np.concatenate([self.U_f, self.U_i, self.U_o, self.U_c])
        b = np.concatenate([self.b_f, self.b_i, self.b_o, self.b_c])
        return W, U, b


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
    b: np.ndarray  # 0-d array so the optimizer can update it in place

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
    """All trainable parameters: fusion projections, cell layers, head."""

    cell: str
    fusion: FusionParameters
    layers: list[LstmLayerParameters | RnnLayerParameters]
    head: HeadParameters

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}")
        size = self.fusion.fused_dim
        for k, layer in enumerate(self.layers):
            if layer.input_size != size:
                raise ValueError(f"layer {k} input size {layer.input_size} != expected {size}")
            size = layer.hidden_size
        if self.head.w.shape != (size,):
            raise ValueError(f"head weights {self.head.w.shape} != ({size},)")

    @property
    def hidden_size(self) -> int:
        return self.layers[-1].hidden_size

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Canonical (name, array) pairs; the arrays are live references."""
        items = [("fusion.W_A", self.fusion.W_A), ("fusion.b_A", self.fusion.b_A),
                 ("fusion.W_F", self.fusion.W_F), ("fusion.b_F", self.fusion.b_F)]
        if self.fusion.has_sentiment:
            items += [("fusion.W_S", self.fusion.W_S), ("fusion.b_S", self.fusion.b_S)]
        for k, layer in enumerate(self.layers):
            if isinstance(layer, LstmLayerParameters):
                for g in GATES:
                    items += [
                        (f"layers.{k}.W_{g}", getattr(layer, f"W_{g}")),
                        (f"layers.{k}.U_{g}", getattr(layer, f"U_{g}")),
                        (f"layers.{k}.b_{g}", getattr(layer, f"b_{g}")),
                    ]
            else:
                items += [(f"layers.{k}.U", layer.U), (f"layers.{k}.W", layer.W)]
        items += [("head.w", self.head.w), ("head.b", self.head.b)]
        return items

    def param_dict(self) -> dict[str, np.ndarray]:
        return dict(self.param_items())

    def copy(self) -> "NetworkParameters":
        fusion = FusionParameters(
            W_A=self.fusion.W_A.copy(), b_A=self.fusion.b_A.copy(),
            W_F=self.fusion.W_F.copy(), b_F=self.fusion.b_F.copy(),
            W_S=None if self.fusion.W_S is None else self.fusion.W_S.copy(),
            b_S=None if self.fusion.b_S is None else self.fusion.b_S.copy(),
        )
        layers: list[LstmLayerParameters | RnnLayerParameters] = []
        for layer in self.layers:
            if isinstance(layer, LstmLayerParameters):
                layers.append(LstmLayerParameters(*[
                    getattr(layer, f"{kind}_{g}").copy() for g in GATES for kind in ("W", "U", "b")
                ]))
            else:
                layers.append(RnnLayerParameters(layer.U.copy(), layer.W.copy()))
        return NetworkParameters(self.cell, fusion, layers, HeadParameters(self.head.w.copy(), self.head.b.copy()))


@dataclass(frozen=True)
class LstmState:
    """Hidden/output state h and memory cell state c of one layer."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.c.shape:
            raise ValueError(f"state shapes differ: {self.h.shape} vs {self.c.shape}")

    @classmethod
    def zeros(cls, hidden: int) -> "LstmState":
        return cls(np.zeros(hidden), np.zeros(hidden))


@dataclass(frozen=True)
class GateStep:
    """Gate activations of a single step."""

    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    candidate: np.ndarray


@dataclass(frozen=True)
class GateTrace:
    """Gate activations of one layer over one window, arrays (steps, hidden)."""

    forget: np.ndarray
    input: np.ndarray
    output: np.ndarray
    candidate: np.ndarray


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


def rnn_step(x_t: np.ndarray, s_prev: np.ndarray, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """One tanh recurrence step: s_t = tanh(U x_t + W s_{t-1})."""
    x_t = np.asarray(x_t, dtype=np.float64)
    s_prev = np.asarray(s_prev, dtype=np.float64)
    if U.shape[1] != x_t.shape[-1]:
        raise ValueError(f"input dim {x_t.shape[-1]} != U columns {U.shape[1]}")
    if W.shape != (U.shape[0], U.shape[0]) or s_prev.shape[-1] != U.shape[0]:
        raise ValueError("recurrent shapes inconsistent")
    return np.tanh(x_t @ U.T + s_prev @ W.T)


def lstm_step(
    x_t: np.ndarray, state: LstmState, params: LstmLayerParameters
) -> tuple[LstmState, GateStep]:
    """One memory-cell step; returns the new state and the gate activations."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape[-1] != params.input_size:
        raise ValueError(f"input dim {x_t.shape[-1]} != layer input size {params.input_size}")
    if state.h.shape[-1] != params.hidden_size:
        raise ValueError(f"state size {state.h.shape[-1]} != hidden size {params.hidden_size}")
    f = _sigmoid_(x_t @ params.W_f.T + state.h @ params.U_f.T + params.b_f)
    i = _sigmoid_(x_t @ params.W_i.T + state.h @ params.U_i.T + params.b_i)
    o = _sigmoid_(x_t @ params.W_o.T + state.h @ params.U_o.T + params.b_o)
    g = np.tanh(x_t @ params.W_c.T + state.h @ params.U_c.T + params.b_c)
    c = f * state.c + i * g
    h = o * np.tanh(c)
    if not np.all(np.isfinite(h)):
        raise DivergenceError("non-finite state in memory-cell step")
    return LstmState(h, c), GateStep(f, i, o, g)


def init_parameters(shape: ModelShape, seed: int, forget_bias: float = 1.0) -> NetworkParameters:
    """Seeded Glorot-uniform weights, zero biases except the forget-gate
    bias, which starts at `forget_bias` so fresh cells retain their memory.
    """
    rng = np.random.default_rng(seed)

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    width = shape.width
    fusion = FusionParameters(
        W_A=glorot(width, shape.d_a), b_A=np.zeros(width),
        W_F=glorot(width, shape.d_f), b_F=np.zeros(width),
        W_S=glorot(width, shape.d_s) if shape.d_s is not None else None,
        b_S=np.zeros(width) if shape.d_s is not None else None,
    )

    layers: list[LstmLayerParameters | RnnLayerParameters] = []
    size = shape.fused_dim
    for _ in range(shape.layers):
        if shape.cell == LSTM:
            kwargs = {}
            for g in GATES:
                kwargs[f"W_{g}"] = glorot(shape.hidden, size)
                kwargs[f"U_{g}"] = glorot(shape.hidden, shape.hidden)
                kwargs[f"b_{g}"] = np.full(shape.hidden, forget_bias) if g == "f" else np.zeros(shape.hidden)
            layers.append(LstmLayerParameters(**kwargs))
        else:
            layers.append(RnnLayerParameters(U=glorot(shape.hidden, size), W=glorot(shape.hidden, shape.hidden)))
        size = shape.hidden

    head = HeadParameters(w=glorot(1, shape.hidden)[0], b=np.zeros(()))
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
    x: np.ndarray        # (T, D, n) layer inputs
    h: np.ndarray        # (T, H, n) hidden states
    c: np.ndarray        # (T, H, n) cell states
    f: np.ndarray        # gate activations: (T, H, n) row blocks of one
    i: np.ndarray        # (T, 4H, n) buffer, in f, i, o, c order
    o: np.ndarray
    g: np.ndarray        # candidate activations tanh(.)
    tanh_c: np.ndarray


@dataclass
class _RnnLayerCache:
    x: np.ndarray
    s: np.ndarray        # (T, H, n)


@dataclass
class ForwardCache:
    """Everything the backward pass needs, plus the predictions."""

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


def _as_batch(stream: np.ndarray, name: str, expected_dim: int) -> np.ndarray:
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} stream must be (batch, steps, dim), got shape {arr.shape}")
    if arr.shape[2] != expected_dim:
        raise ValueError(f"{name} stream dim {arr.shape[2]} != expected {expected_dim}")
    return arr


def _fuse_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None], fusion: FusionParameters
) -> np.ndarray:
    """Fused layer input, batch-last (T, D, n)."""
    a, f, s = streams
    pairs = [(a, fusion.W_A, fusion.b_A), (f, fusion.W_F, fusion.b_F)]
    if fusion.has_sentiment:
        pairs.append((s, fusion.W_S, fusion.b_S))
    parts = [np.matmul(W, stream.transpose(1, 2, 0)) + b[:, None] for stream, W, b in pairs]
    return np.concatenate(parts, axis=1)


def _lstm_forward(x: np.ndarray, layer: LstmLayerParameters) -> _LstmLayerCache:
    steps, _, n = x.shape
    hid = layer.hidden_size
    Wall, Uall, ball = layer.stacked()
    A = np.matmul(Wall, x)                               # (T, 4H, n)
    A += ball[:, None]
    H = np.empty((steps, hid, n))
    C = np.empty((steps, hid, n))
    TC = np.empty((steps, hid, n))
    rec = np.empty((4 * hid, n))
    for t in range(steps):
        act = A[t]
        if t > 0:
            np.matmul(Uall, H[t - 1], out=rec)
            act += rec
        _sigmoid_(act[: 3 * hid])
        np.tanh(act[3 * hid :], out=act[3 * hid :])
        f, i, o, g = act[:hid], act[hid : 2 * hid], act[2 * hid : 3 * hid], act[3 * hid :]
        if t > 0:
            np.multiply(f, C[t - 1], out=C[t])
            C[t] += i * g
        else:
            np.multiply(i, g, out=C[t])
        np.tanh(C[t], out=TC[t])
        np.multiply(o, TC[t], out=H[t])
    return _LstmLayerCache(
        x=x, h=H, c=C, f=A[:, :hid], i=A[:, hid : 2 * hid], o=A[:, 2 * hid : 3 * hid],
        g=A[:, 3 * hid :], tanh_c=TC,
    )


def _rnn_forward(x: np.ndarray, layer: RnnLayerParameters) -> _RnnLayerCache:
    S = np.matmul(layer.U, x)                            # (T, H, n)
    rec = np.empty(S.shape[1:])
    for t in range(S.shape[0]):
        if t > 0:
            np.matmul(layer.W, S[t - 1], out=rec)
            S[t] += rec
        np.tanh(S[t], out=S[t])
    return _RnnLayerCache(x=x, s=S)


def forward_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    params: NetworkParameters,
) -> ForwardCache:
    """Evaluate every window in the batch; returns predictions plus the
    cached activations required for an exact backward pass.
    """
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

    x = _fuse_batch((a, f, s), params.fusion)            # (T, D, n)
    caches: list[_LstmLayerCache | _RnnLayerCache] = []
    for layer in params.layers:
        if isinstance(layer, LstmLayerParameters):
            lc = _lstm_forward(x, layer)
            x = lc.h
        else:
            lc = _rnn_forward(x, layer)
            x = lc.s
        caches.append(lc)

    predictions = params.head.w @ x[-1] + float(params.head.b)
    if not np.all(np.isfinite(predictions)):
        raise DivergenceError("non-finite prediction in forward pass")
    return ForwardCache(params=params, streams=(a, f, s), layers=caches, predictions=predictions)


def _lstm_backward(
    lc: _LstmLayerCache, layer: LstmLayerParameters, d_h_extra: np.ndarray, k: int,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    steps, hid, n = lc.h.shape
    Wall, Uall, _ = layer.stacked()
    dWall = np.zeros_like(Wall)
    dUall = np.zeros_like(Uall)
    dball = np.zeros(4 * hid)
    dx = np.empty_like(lc.x)
    dA = np.empty((4 * hid, n))
    dF, dI, dO, dG = dA[:hid], dA[hid : 2 * hid], dA[2 * hid : 3 * hid], dA[3 * hid :]
    dh_rec = np.zeros((hid, n))
    dc_rec = np.zeros((hid, n))
    for t in range(steps - 1, -1, -1):
        f, i, o, g, tc = lc.f[t], lc.i[t], lc.o[t], lc.g[t], lc.tanh_c[t]
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
        dWall += dA @ lc.x[t].T
        if t > 0:
            dUall += dA @ lc.h[t - 1].T
        dball += dA.sum(axis=1)
        np.matmul(Wall.T, dA, out=dx[t])
        dh_rec = Uall.T @ dA
        dc_rec = dc * f
    for j, gate in enumerate(GATES):
        rows = slice(j * hid, (j + 1) * hid)
        grads[f"layers.{k}.W_{gate}"] = dWall[rows]
        grads[f"layers.{k}.U_{gate}"] = dUall[rows]
        grads[f"layers.{k}.b_{gate}"] = dball[rows]
    return dx


def _rnn_backward(
    lc: _RnnLayerCache, layer: RnnLayerParameters, d_h_extra: np.ndarray, k: int,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    steps, hid, n = lc.s.shape
    dU = np.zeros_like(layer.U)
    dW = np.zeros_like(layer.W)
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
    grads[f"layers.{k}.U"] = dU
    grads[f"layers.{k}.W"] = dW
    return dx


def backward_batch(cache: ForwardCache, d_predictions: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of sum(d_predictions * predictions) with respect to
    every parameter, keyed like `NetworkParameters.param_items`.
    """
    params = cache.params
    d_pred = np.asarray(d_predictions, dtype=np.float64)
    if d_pred.shape != cache.predictions.shape:
        raise ValueError(f"upstream gradient shape {d_pred.shape} != predictions {cache.predictions.shape}")
    steps = cache.steps
    n = cache.n_windows
    grads: dict[str, np.ndarray] = {}

    top = cache.layers[-1]
    final_h = (top.h if isinstance(top, _LstmLayerCache) else top.s)[-1]
    grads["head.w"] = final_h @ d_pred
    grads["head.b"] = np.asarray(d_pred.sum())

    # d_h_extra[t]: gradient flowing into h_t of the current layer from
    # outside the recurrence (head at the last step, or the layer above).
    d_h_extra = np.zeros((steps, params.hidden_size, n))
    d_h_extra[-1] = np.outer(params.head.w, d_pred)

    for k in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[k]
        backward = _lstm_backward if isinstance(layer, LstmLayerParameters) else _rnn_backward
        d_h_extra = backward(cache.layers[k], layer, d_h_extra, k, grads)

    # d_h_extra now holds the gradient wrt the fused input (T, D, n).
    fusion = params.fusion
    width = fusion.d_i
    blocks = [("A", cache.streams[0]), ("F", cache.streams[1])]
    if fusion.has_sentiment:
        blocks.append(("S", cache.streams[2]))
    for j, (name, stream) in enumerate(blocks):
        d_proj = d_h_extra[:, j * width : (j + 1) * width]
        grads[f"fusion.W_{name}"] = np.einsum("tin,ntj->ij", d_proj, stream)
        grads[f"fusion.b_{name}"] = d_proj.sum(axis=(0, 2))

    return {name: grads[name] for name, _ in params.param_items()}


def forward_sequence(
    window: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    params: NetworkParameters,
) -> tuple[float, list[GateTrace], ForwardCache]:
    """Evaluate one window (stream arrays shaped (steps, dim)).

    Returns the scalar prediction, one GateTrace per layer (empty list for
    the tanh recurrence, which has no gates), and the cache for the
    backward pass.
    """
    a, f, s = window
    batch = (
        np.asarray(a, dtype=np.float64)[None],
        np.asarray(f, dtype=np.float64)[None],
        None if s is None else np.asarray(s, dtype=np.float64)[None],
    )
    cache = forward_batch(batch, params)
    return float(cache.predictions[0]), gate_traces(cache, 0), cache


def backward_sequence(cache: ForwardCache, d_prediction: float | np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for a cache produced by `forward_sequence`."""
    d = np.atleast_1d(np.asarray(d_prediction, dtype=np.float64))
    return backward_batch(cache, d)


def gate_traces(cache: ForwardCache, window_index: int) -> list[GateTrace]:
    """Per-layer gate traces of one window in a batch cache."""
    traces = []
    for lc in cache.layers:
        if isinstance(lc, _LstmLayerCache):
            traces.append(
                GateTrace(
                    forget=lc.f[:, :, window_index].copy(),
                    input=lc.i[:, :, window_index].copy(),
                    output=lc.o[:, :, window_index].copy(),
                    candidate=lc.g[:, :, window_index].copy(),
                )
            )
    return traces


def all_gate_traces(cache: ForwardCache) -> list[GateTrace]:
    """Gate traces of every (layer, window) pair in a batch cache."""
    return [t for w in range(cache.n_windows) for t in gate_traces(cache, w)]


def mean_forget_activation(traces: Iterable[GateTrace]) -> float:
    """Arithmetic mean of every forget-gate coordinate across the given
    traces (all steps, layers, and windows weighted equally per coordinate).
    """
    values = [np.asarray(t.forget, dtype=np.float64).ravel() for t in traces]
    if not values:
        raise ValueError("no gate traces given")
    return float(np.concatenate(values).mean())
