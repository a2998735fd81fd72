"""Recurrent layers, stacked sequence evaluation, and exact backpropagation
through time.

Two cell types share the sequence-evaluation contract: the gated memory cell

    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)        (likewise i_t, o_t)
    c_t = f_t * c_{t-1} + i_t * tanh(W_c x_t + U_c h_{t-1} + b_c)
    h_t = o_t * tanh(c_t)

and the plain tanh recurrence s_t = tanh(U x_t + W s_{t-1}). Per-stream
affine projections map the fundamental, technical and sentiment streams to
one shared width and are concatenated into the first layer's input; a stack
of layers reads it, and an affine head maps the top layer's final hidden
state to the scalar next-step prediction. The backward pass is exact
reverse-mode differentiation through the whole unrolled window, including
the stream projections, with no truncation.

A model is its `ModelShape` plus one float64 `vector`. `NetworkParameters(shape)`
allocates the vector, all zeros, and binds every stored array as a view of
it, in the storage order that `storage_order` alone defines: the stream
projections, each layer, then the head. A write to a named block (a
finite-difference probe, `init_parameters`) or to the vector (the Adam step,
a checkpoint load) writes the arrays the kernel reads. Gradients come back
as a model of the same shape: each at its parameter's index.

A memory-cell layer stores its four gates stacked, in f, i, o, c order: one
W (4h x d), one U (4h x h) and one b (4h), so each step's four gate
pre-activations are one GEMM (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946). `NetworkParameters.param_items` names the per-gate row
blocks `layers.k.W_f`, `layers.k.U_i`, ... and hands them out as views.

Both stacks run step-major in both passes, the wavefront order of Appleyard
et al.: each step runs every layer in turn, so the layer above reads a
layer's output at the step it is made. A forward pass writes the fused
input, the top layer's last hidden state, which the head reads, and each
layer's activations (a memory-cell layer's gates and c, a tanh layer's
states) into a cache, at one of two depths: every step (depth T, what a
forward allocates and what the backward pass and the forget-gate mean
read), or the last step only (depth 1, from `last_step_cache`, for
predictions; those two readers refuse it). Step t sits at row t % depth,
and is computed there with one GEMM of the step's input and one of the
recurrent state, whatever the depth, so the predictions are bit-identical
at either depth. The backward pass runs t downwards and, at each t, the
layers from the top down. A layer's input gradient at step t is the layer
below's upstream gradient at the same step, so it passes in one (h, n)
buffer; only the fused input's gradient has a step axis.

Given a cache in place of the parameters, a forward pass writes into that
cache's arrays, as Appleyard et al. preallocate theirs, and returns it. The
cache stands for its own model, so the only check is that it covers the
same window count and step count as the streams; any other raises
ValueError, with no fallback to fresh arrays. The same ufunc and BLAS calls
run in the same order, only into other destinations, so the results are
bit-identical to a fresh forward's. Full-batch training runs each epoch into
the last epoch's cache, so a run holds one set of activations, the memory
that dominates exact BPTT (Chen et al. 2016, arXiv:1604.06174), instead of
two.

A memory-cell layer's h lives in one (h, n) buffer, and neither tanh(c) nor
h is held at any step: the backward pass recomputes tanh(c_{t-1}) and
h_{t-1} = o_{t-1} * tanh(c_{t-1}) from the cache with the forward pass's two
calls, one tanh and one product per layer and step: the cheap end of the
store-or-recompute trade of memory-efficient BPTT (Gruslys et al. 2016,
arXiv:1606.03401).

Everything is float64 and deterministic: identical inputs and parameters
give bit-identical outputs on one machine at one BLAS thread count. OpenBLAS
splits a GEMM differently on one thread than on two, so the last bits of a
large batch's results can differ between the two; importing this module
therefore pins numpy's bundled OpenBLAS to one thread for the whole process
(`trendlab.blas`), whatever `OPENBLAS_NUM_THREADS` says. Where numpy links
another BLAS nothing is pinned, and the bits can depend on its thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import blas
from .errors import DivergenceError

blas.pin_one_thread()

LSTM = "lstm"
RNN = "rnn"
CELLS = (LSTM, RNN)

GATES = ("f", "i", "o", "c")


@dataclass(frozen=True)
class ModelShape:
    """Everything that fixes a model's parameter layout: the cell, the
    stream widths (d_s None without sentiment), the shared projection width
    d_i (None: the widest stream, so no stream is compressed), the layer
    count and the hidden size."""

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
        return self.d_i if self.d_i is not None else max(self.d_a, self.d_f, self.d_s or 0)

    @property
    def fused_dim(self) -> int:
        return (3 if self.d_s is not None else 2) * self.width


@dataclass
class FusionParameters:
    """Each stream's projection to the shared width: W_A/b_A fundamental,
    W_F/b_F technical, W_S/b_S sentiment (None when sentiment is ablated)."""

    W_A: np.ndarray
    b_A: np.ndarray
    W_F: np.ndarray
    b_F: np.ndarray
    W_S: np.ndarray | None = None
    b_S: np.ndarray | None = None

    def projections(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) of each fused stream: fundamental, technical, then sentiment."""
        pairs = [(self.W_A, self.b_A), (self.W_F, self.b_F)]
        if self.W_S is not None:
            pairs.append((self.W_S, self.b_S))
        return pairs


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

    def gate_blocks(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """(name, view) per gate row block, W_g, U_g, b_g for g in f, i, o, c."""
        hid = self.U.shape[1]
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


@dataclass
class HeadParameters:
    """Affine regression head: hidden state -> scalar prediction."""

    w: np.ndarray
    b: np.ndarray  # 0-d array, so that it can be a view of one vector element


def storage_order(shape: ModelShape) -> list[tuple[type, list[tuple[int, ...]]]]:
    """The parts of a model of `shape` in storage order, each as its class
    and the dims of its arrays in field order: the stream projections
    (W_A, b_A, W_F, b_F, then W_S, b_S with sentiment), each layer (a
    memory-cell layer's stacked W, U, b; a tanh layer's U, W), then the
    head's w and b. A checkpoint stores the vector in this order, so a
    change to it needs a new checkpoint schema."""
    width, hid = shape.width, shape.hidden
    streams = (shape.d_a, shape.d_f) if shape.d_s is None else (shape.d_a, shape.d_f, shape.d_s)
    parts = [(FusionParameters, [dims for d in streams for dims in ((width, d), (width,))])]
    size = shape.fused_dim
    for _ in range(shape.layers):
        if shape.cell == LSTM:
            parts.append((LstmLayerParameters, [(4 * hid, size), (4 * hid, hid), (4 * hid,)]))
        else:
            parts.append((RnnLayerParameters, [(hid, size), (hid, hid)]))
        size = hid
    parts.append((HeadParameters, [(hid,), ()]))
    return parts


class NetworkParameters:
    """All trainable parameters of a model of `shape`, all zero when new:
    the fusion projections, the cell layers and the head. Every array is a
    view of the one float64 `vector`, laid out as `storage_order` lists them.
    """

    def __init__(self, shape: ModelShape):
        self.shape = shape
        parts = storage_order(shape)
        self.vector = np.zeros(sum(math.prod(dims) for _, part in parts for dims in part))
        built, offset = [], 0
        for cls, part in parts:
            arrays = []
            for dims in part:
                size = math.prod(dims)
                arrays.append(self.vector[offset : offset + size].reshape(dims))
                offset += size
            built.append(cls(*arrays))
        self.fusion: FusionParameters = built[0]
        self.layers: list[LstmLayerParameters | RnnLayerParameters] = built[1:-1]
        self.head: HeadParameters = built[-1]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Canonical (name, array) pairs. The arrays are views of `vector`,
        and together they cover it once."""
        fusion = self.fusion
        items = [(f"fusion.{f.name}", getattr(fusion, f.name)) for f in fields(fusion)
                 if getattr(fusion, f.name) is not None]
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
    The weights are drawn in `param_items` order, W_A, W_F, W_S, then per
    layer W_f, U_f, W_i, ..., U_c (or U, W), then the head's w; a seed's
    values depend on that order.
    """
    rng = np.random.default_rng(seed)
    params = NetworkParameters(shape)
    for name, block in params.param_items():
        kind = name.rsplit(".", 1)[1]
        if kind == "b_f":
            block[...] = forget_bias
        elif not kind.startswith("b"):
            fan_out, fan_in = block.shape if block.ndim == 2 else (1, block.size)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            block[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in)).reshape(block.shape)
    return params


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
    """A memory-cell layer's gates and c. Neither its input nor its h is
    held: h_t = o_t * tanh(c_t) is recomputed where it is read."""

    gates: np.ndarray    # (depth, 4H, n) gate activations, row blocks f, i, o, g
    c: np.ndarray        # (depth, H, n) cell states

    def _gate(self, j: int) -> np.ndarray:
        hid = self.c.shape[1]
        return self.gates[:, j * hid : (j + 1) * hid]

    f = property(lambda self: self._gate(0))
    i = property(lambda self: self._gate(1))
    o = property(lambda self: self._gate(2))
    g = property(lambda self: self._gate(3))  # candidate activations tanh(.)


@dataclass
class _RnnLayerCache:
    """A tanh layer's states, which are also its output."""

    s: np.ndarray        # (depth, H, n) states


@dataclass
class ForwardCache:
    """Everything the backward pass needs, plus the predictions; a cache
    from `last_step_cache` holds only what the predictions need."""

    params: NetworkParameters
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None]  # (n, T, d) each
    x: np.ndarray            # (T, D, n) fused input, which the first layer reads
    layers: list[_LstmLayerCache | _RnnLayerCache]
    h: np.ndarray            # (H, n) the top layer's last hidden state, which the head reads
    predictions: np.ndarray  # (n,)

    @property
    def n_windows(self) -> int:
        return self.predictions.shape[0]

    @property
    def steps(self) -> int:
        return self.x.shape[0]

    @property
    def depth(self) -> int:
        """Steps held, the first axis of every layer's arrays: T, or 1."""
        return len(self.buffers()[1])

    def buffers(self) -> list[np.ndarray]:
        """The activation arrays a forward pass writes: the fused input,
        each layer's, and the top h. Another forward given this cache in
        place of the parameters overwrites exactly these."""
        return [self.x] + [a for lc in self.layers for a in vars(lc).values()] + [self.h]

    def _require_every_step(self, reader: str) -> None:
        if self.depth < self.steps:
            raise ValueError(f"{reader} needs every step's activations, and this cache keeps only the last step")


def _empty_cache(params: NetworkParameters, n: int, steps: int, depth: int) -> ForwardCache:
    """A cache of `params` over new uninitialised arrays for n windows of
    `steps` steps, each layer's at `depth` steps (`steps` or 1). Its
    predictions are NaN until a forward runs into it."""
    shape = params.shape
    hid = shape.hidden
    if shape.cell == LSTM:
        layers = [_LstmLayerCache(np.empty((depth, 4 * hid, n)), np.empty((depth, hid, n)))
                  for _ in range(shape.layers)]
    else:
        layers = [_RnnLayerCache(np.empty((depth, hid, n))) for _ in range(shape.layers)]
    x = np.empty((steps, shape.fused_dim, n))
    return ForwardCache(params, (), x, layers, np.empty((hid, n)), np.full(n, np.nan))


def last_step_cache(params: NetworkParameters, n_windows: int, steps: int) -> ForwardCache:
    """A cache of `params` to forward n_windows windows of `steps` steps
    into, for predictions only: each layer keeps one step, so the backward
    pass and the forget-gate mean refuse the result. Its buffers are the
    fused input, one step per layer and the top h."""
    return _empty_cache(params, n_windows, steps, depth=1)


def _as_batch(stream: np.ndarray, name: str, expected_dim: int) -> np.ndarray:
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} stream must be (batch, steps, dim), got shape {arr.shape}")
    if arr.shape[2] != expected_dim:
        raise ValueError(f"{name} stream dim {arr.shape[2]} != expected {expected_dim}")
    return arr


def _fuse_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None], params: NetworkParameters, out: np.ndarray
) -> None:
    """Writes the fused layer input, batch-last (T, D, n), into `out`: each
    stream's projection fills its block of D."""
    width = params.shape.width
    for j, (stream, (W, b)) in enumerate(zip(streams, params.fusion.projections())):
        block = out[:, j * width : (j + 1) * width]
        np.matmul(W, stream.transpose(1, 2, 0), out=block)
        block += b[:, None]


def _lstm_forward(cache: ForwardCache, layers: list[LstmLayerParameters]) -> None:
    """Fills the memory-cell stack's gates and c, and the top h, from the
    fused input, step-major: at each step, layers 0..L-1 in turn. Step t
    lives at row t % depth. Each layer keeps its h in one (H, n) buffer (the
    top layer's is the cache's h): the layer above reads it at the same
    step, the layer's own recurrence at the next."""
    hid, n = cache.h.shape
    depth = cache.depth
    hs = [np.empty((hid, n)) for _ in layers[:-1]] + [cache.h]
    rec = np.empty((4 * hid, n))
    tc = np.empty((hid, n))
    for t in range(cache.steps):
        k = t % depth
        x = cache.x[t]
        for lc, layer, h in zip(cache.layers, layers, hs):
            act, C = lc.gates[k], lc.c
            np.matmul(layer.W, x, out=act)
            act += layer.b[:, None]
            if t > 0:
                np.matmul(layer.U, h, out=rec)
                act += rec
            _sigmoid_(act[: 3 * hid])
            np.tanh(act[3 * hid :], out=act[3 * hid :])
            f, i, o, g = act[:hid], act[hid : 2 * hid], act[2 * hid : 3 * hid], act[3 * hid :]
            if t > 0:
                np.multiply(f, C[(t - 1) % depth], out=C[k])
                np.multiply(i, g, out=tc)
                C[k] += tc
            else:
                np.multiply(i, g, out=C[k])
            np.tanh(C[k], out=tc)
            np.multiply(o, tc, out=h)
            x = h


def _rnn_forward(cache: ForwardCache, layers: list[RnnLayerParameters]) -> None:
    """Fills each tanh layer's states s, step-major as `_lstm_forward`: step
    t lives at row t % depth, where the layer above reads it at the same
    step. Copies the top layer's last state to the cache's h."""
    depth = cache.depth
    rec = np.empty(cache.h.shape)
    for t in range(cache.steps):
        k = t % depth
        x = cache.x[t]
        for lc, layer in zip(cache.layers, layers):
            S = lc.s
            if t > 0:  # before row k, which is row t - 1 at depth 1, is written
                np.matmul(layer.W, S[(t - 1) % depth], out=rec)
            np.matmul(layer.U, x, out=S[k])
            if t > 0:
                S[k] += rec
            np.tanh(S[k], out=S[k])
            x = S[k]
    np.copyto(cache.h, x)


def forward_batch(
    streams: tuple[np.ndarray, np.ndarray, np.ndarray | None], params: NetworkParameters | ForwardCache
) -> ForwardCache:
    """Evaluate every window in the batch; returns predictions plus the
    cached activations required for an exact backward pass: the fused
    input, every step's gates and c (a tanh layer's states), and the top
    layer's last h.

    A cache given in place of `params` stands for its own model and
    buffers: every activation is written into its arrays, and it is the
    cache returned, with this call's streams and predictions. It holds
    partial values if the call raises. It must cover as many windows and
    steps as the streams, or ValueError is raised. A loop that updates the
    parameter vector in place can so run each step into the last step's cache.
    A cache from `last_step_cache` gives the same predictions, but keeps
    too little for the backward pass.
    """
    into = None
    if isinstance(params, ForwardCache):
        params, into = params.params, params
    shape = params.shape
    a = _as_batch(streams[0], "fundamental", shape.d_a)
    f = _as_batch(streams[1], "technical", shape.d_f)
    s = None
    if shape.d_s is not None:
        if streams[2] is None:
            raise ValueError("parameters expect a sentiment stream but none was given")
        s = _as_batch(streams[2], "sentiment", shape.d_s)
    if any(stream is not None and stream.shape[:2] != a.shape[:2] for stream in (f, s)):
        raise ValueError("stream batch/step shapes differ")
    if a.shape[1] < 1:
        raise ValueError("window must contain at least one step")

    if into is None:
        into = _empty_cache(params, a.shape[0], a.shape[1], depth=a.shape[1])
    elif (into.n_windows, into.steps) != a.shape[:2]:
        raise ValueError(f"cache holds {into.n_windows} windows of {into.steps} steps, the streams {a.shape[:2]}")

    _fuse_batch((a, f, s), params, into.x)
    (_lstm_forward if shape.cell == LSTM else _rnn_forward)(into, params.layers)

    predictions = params.head.w @ into.h + float(params.head.b)
    if not np.all(np.isfinite(predictions)):
        raise DivergenceError("non-finite prediction in forward pass")
    into.streams, into.predictions = (a, f, s), predictions
    return into


def _lstm_backward(
    cache: ForwardCache, layers: list[LstmLayerParameters], d_h: np.ndarray, grads: list[LstmLayerParameters]
) -> np.ndarray:
    """Accumulates the memory-cell stack's gradients into `grads`' (zero)
    arrays, given `d_h`, the gradient into the top layer's last h, and
    returns the (T, D, n) gradient with respect to the fused input.

    Step-major, as the forward pass: t runs downwards, and at each t the
    layers from the top down. Each layer carries its recurrent dh and dc,
    tanh(c_t) and h_t in (H, n) buffers; as it leaves step t it recomputes
    tanh(c_{t-1}) and h_{t-1} = o_{t-1} * tanh(c_{t-1}) with the forward
    pass's calls, so the bits match. The layer above has read h_t by then.
    Each layer's input gradient at step t is the upstream gradient of the
    layer below at the same step, passed in one (H, n) buffer."""
    steps, hid, n = cache.steps, cache.h.shape[0], cache.n_windows
    top = len(layers) - 1
    dx = np.empty_like(cache.x)
    dA = np.empty((4 * hid, n))
    dF, dI, dO, dG = dA[:hid], dA[hid : 2 * hid], dA[2 * hid : 3 * hid], dA[3 * hid :]
    zeros, d_up, dh, dc, tmp = (np.zeros((hid, n)) for _ in range(5))
    tcs = [np.tanh(lc.c[-1]) for lc in cache.layers]
    hs = [np.multiply(lc.o[-1], tc) for lc, tc in zip(cache.layers, tcs)]
    dh_recs = [np.zeros((hid, n)) for _ in layers]
    dc_recs = [np.zeros((hid, n)) for _ in layers]
    gates = [(lc.f, lc.i, lc.o, lc.g) for lc in cache.layers]
    for t in range(steps - 1, -1, -1):
        for l in range(top, -1, -1):
            C, (F, I, O, G), layer, grad, tc, h = cache.layers[l].c, gates[l], layers[l], grads[l], tcs[l], hs[l]
            f, i, o, g = F[t], I[t], O[t], G[t]
            upstream = d_up if l < top else d_h if t == steps - 1 else zeros
            np.add(upstream, dh_recs[l], out=dh)
            # dc = dc_rec + dh * o * (1 - tanh(c)^2)
            np.square(tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dh, o, out=dc)
            dc *= tmp
            dc += dc_recs[l]
            if t > 0:
                np.multiply(dc, C[t - 1], out=dF)
                dF *= f
                np.subtract(1.0, f, out=tmp)
                dF *= tmp
            else:
                dF[...] = 0.0
            np.multiply(dc, g, out=dI)
            dI *= i
            np.subtract(1.0, i, out=tmp)
            dI *= tmp
            np.multiply(dh, tc, out=dO)
            dO *= o
            np.subtract(1.0, o, out=tmp)
            dO *= tmp
            np.multiply(dc, i, out=dG)
            np.square(g, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dG *= tmp
            grad.W += dA @ (cache.x[t] if l == 0 else hs[l - 1]).T
            if t > 0:
                np.tanh(C[t - 1], out=tc)
                np.multiply(O[t - 1], tc, out=h)
                grad.U += dA @ h.T
            grad.b += dA.sum(axis=1)
            np.matmul(layer.W.T, dA, out=dx[t] if l == 0 else d_up)
            np.matmul(layer.U.T, dA, out=dh_recs[l])
            np.multiply(dc, f, out=dc_recs[l])
    return dx


def _rnn_backward(
    cache: ForwardCache, layers: list[RnnLayerParameters], d_h: np.ndarray, grads: list[RnnLayerParameters]
) -> np.ndarray:
    """Like `_lstm_backward`, for a tanh stack, in the same order: each
    layer carries its recurrent gradient in an (H, n) buffer, and passes
    its input gradient at step t to the layer below in another."""
    steps, top = cache.steps, len(layers) - 1
    dx = np.empty_like(cache.x)
    zeros, d_up, da, tmp = (np.zeros(d_h.shape) for _ in range(4))
    ds_recs = [np.zeros(d_h.shape) for _ in layers]
    for t in range(steps - 1, -1, -1):
        for l in range(top, -1, -1):
            S, layer, grad = cache.layers[l].s, layers[l], grads[l]
            upstream = d_up if l < top else d_h if t == steps - 1 else zeros
            np.add(upstream, ds_recs[l], out=da)
            np.square(S[t], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            da *= tmp
            grad.U += da @ (cache.x[t] if l == 0 else cache.layers[l - 1].s[t]).T
            if t > 0:
                grad.W += da @ S[t - 1].T
            np.matmul(layer.U.T, da, out=dx[t] if l == 0 else d_up)
            np.matmul(layer.W.T, da, out=ds_recs[l])
    return dx


def backward_batch(cache: ForwardCache, d_predictions: np.ndarray) -> NetworkParameters:
    """Exact gradients of sum(d_predictions * predictions) with respect to
    every parameter, as a model of the same shape: each gradient sits where
    its parameter does.

    Both stacks run step-major, their per-layer state in (H, n) buffers;
    only the fused input's gradient has a step axis. A memory-cell stack
    recomputes each step's tanh(c) and h from the cached gates and c, with
    the calls the forward pass made, so the bits match stored copies. The
    pass writes only its own arrays: the cache, its streams and
    `d_predictions` are only read.
    """
    cache._require_every_step("the backward pass")
    params = cache.params
    d_pred = np.asarray(d_predictions, dtype=np.float64)
    if d_pred.shape != cache.predictions.shape:
        raise ValueError(f"upstream gradient shape {d_pred.shape} != predictions {cache.predictions.shape}")
    grads = NetworkParameters(params.shape)

    grads.head.w[...] = cache.h @ d_pred
    grads.head.b[...] = d_pred.sum()
    backward = _lstm_backward if params.shape.cell == LSTM else _rnn_backward
    d_x = backward(cache, params.layers, np.outer(params.head.w, d_pred), grads.layers)

    width = params.shape.width
    for j, (stream, (dW, db)) in enumerate(zip(cache.streams, grads.fusion.projections())):
        d_proj = d_x[:, j * width : (j + 1) * width]
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
