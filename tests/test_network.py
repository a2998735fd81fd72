from __future__ import annotations

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendlab.errors import DivergenceError
from trendlab.network import (
    ModelShape,
    NetworkParameters,
    backward_batch,
    forget_gate_sum,
    forward_batch,
    init_parameters,
    last_step_cache,
)

from oracles import (
    gradient_check,
    pairwise_mean,
    pairwise_sum,
    python_lstm_forward,
    reference_backward,
    reference_forward,
    scalar_lstm_step,
    scalar_sigmoid,
)

SCALAR_SHAPE = ModelShape(cell="lstm", d_a=1, d_f=1, d_s=1, d_i=1, layers=1, hidden=1)
SCALAR_RNN_SHAPE = ModelShape(cell="rnn", d_a=1, d_f=1, d_s=None, d_i=1, layers=1, hidden=1)


def zeroed(params: NetworkParameters) -> NetworkParameters:
    for _, array in params.param_items():
        array[...] = 0.0
    return params


def one_window(*streams):
    """A batch of one window from per-step (steps, dim) stream arrays."""
    return tuple(None if s is None else np.asarray(s, dtype=np.float64)[None] for s in streams)


def scalar_net(shape: ModelShape, **values: float) -> NetworkParameters:
    """Zero parameters of a one-unit network whose fused input is
    (fundamental, 0, ...), whose head reads the state unchanged, and whose
    named scalars are set from `values` (`layers.0.W_i` is the weight on
    the fundamental input)."""
    params = zeroed(init_parameters(shape, seed=0))
    weights = dict(params.param_items())
    weights["fusion.W_A"][...] = 1.0
    weights["head.w"][...] = 1.0
    for name, value in values.items():
        weights[name].flat[0] = value
    return params


def hidden(lc) -> np.ndarray:
    """A layer's hidden states at the steps its cache holds: a tanh layer's
    s, or a memory-cell layer's h = o * tanh(c), recomputed step by step
    with the forward pass's two calls, so the bits are the ones it fed the
    layer above."""
    if not hasattr(lc, "gates"):
        return lc.s
    h, tc = np.empty_like(lc.c), np.empty_like(lc.c[0])
    for t in range(len(lc.c)):
        np.tanh(lc.c[t], out=tc)
        np.multiply(lc.o[t], tc, out=h[t])
    return h


def fundamental_only(values) -> tuple:
    steps = len(values)
    return one_window(np.array(values, dtype=np.float64)[:, None], np.zeros((steps, 1)), np.zeros((steps, 1)))


# --- one tanh step -------------------------------------------------------------


def test_rnn_step_zero_maps_to_zero():
    params = zeroed(init_parameters(ModelShape(cell="rnn", layers=2, hidden=3), seed=0))
    rng = np.random.default_rng(0)
    streams = (rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3)), rng.uniform(size=(2, 4, 1)))
    cache = forward_batch(streams, params)
    for lc in cache.layers:
        np.testing.assert_array_equal(lc.s, np.zeros_like(lc.s))


def test_rnn_step_saturates():
    params = scalar_net(SCALAR_RNN_SHAPE, **{"layers.0.W": 1.0})
    cache = forward_batch(one_window([[50.0]], [[0.0]], None), params)
    assert cache.predictions[0] == pytest.approx(1.0, abs=1e-12)


def test_rnn_step_scalar_oracle():
    x0, x1, w, u = -0.52, 0.37, 1.3, -0.6
    params = scalar_net(SCALAR_RNN_SHAPE, **{"layers.0.W": w, "layers.0.U": u})
    cache = forward_batch(one_window([[x0], [x1]], [[0.0], [0.0]], None), params)
    s0 = math.tanh(w * x0)
    assert abs(cache.layers[0].s[0, 0, 0] - s0) < 1e-12
    assert abs(cache.predictions[0] - math.tanh(w * x1 + u * s0)) < 1e-12


def test_rnn_step_shape_errors():
    """Only a valid shape builds a model, and a tanh layer's arrays follow
    it: W (hidden x input), U (hidden x hidden)."""
    with pytest.raises(ValueError, match="positive"):
        ModelShape(cell="rnn", hidden=0)
    params = NetworkParameters(ModelShape(cell="rnn", d_s=None, d_i=2, layers=2, hidden=3))
    assert [(layer.W.shape, layer.U.shape) for layer in params.layers] == [((3, 4), (3, 3)), ((3, 3), (3, 3))]


# --- one memory-cell step ------------------------------------------------------


def test_lstm_step_all_zero():
    params = zeroed(init_parameters(SCALAR_SHAPE, seed=0))
    lc = forward_batch(fundamental_only([0.0]), params).layers[0]
    assert lc.f[0, 0, 0] == 0.5 and lc.i[0, 0, 0] == 0.5 and lc.o[0, 0, 0] == 0.5
    assert lc.c[0, 0, 0] == 0.0 and hidden(lc)[0, 0, 0] == 0.0


# Step 0 writes the memory (input gate open on the fundamental input 1,
# candidate tanh(10)); step 1 sees input 0, so the input gate is nearly shut
# and the forget bias alone decides whether the memory survives.
MEMORY_WRITE = {"layers.0.W_i": 20.0, "layers.0.b_i": -10.0, "layers.0.b_c": 10.0, "layers.0.b_o": 10.0}


def _two_step_memory(b_f: float):
    params = scalar_net(SCALAR_SHAPE, **MEMORY_WRITE, **{"layers.0.b_f": b_f})
    cache = forward_batch(fundamental_only([1.0, 0.0]), params)
    lc = cache.layers[0]
    h, c = 0.0, 0.0
    for x in (1.0, 0.0):
        h, c, gates = scalar_lstm_step(x, h, c, 0, 0, b_f, 20.0, 0, -10.0, 0, 0, 10.0, 0, 0, 10.0)
    assert abs(lc.c[1, 0, 0] - c) < 1e-12
    assert abs(hidden(lc)[1, 0, 0] - h) < 1e-12
    assert cache.h[0, 0] == hidden(lc)[1, 0, 0]
    assert abs(lc.f[1, 0, 0] - gates["f"]) < 1e-12
    return lc


def test_lstm_step_memory_retention():
    lc = _two_step_memory(b_f=10.0)
    assert lc.c[0, 0, 0] == pytest.approx(0.99995, abs=5e-5)
    assert lc.c[1, 0, 0] == pytest.approx(0.99995, abs=5e-5)
    assert hidden(lc)[1, 0, 0] == pytest.approx(0.7615, abs=5e-4)


def test_lstm_step_memory_erasure():
    lc = _two_step_memory(b_f=-10.0)
    assert lc.c[0, 0, 0] == pytest.approx(0.99995, abs=5e-5)
    assert abs(lc.c[1, 0, 0]) < 1e-4


def test_lstm_step_shape_errors():
    """Only a valid shape builds a model, and a memory-cell layer's stacked
    arrays follow it: W (4h x input), U (4h x h), b (4h), then the head's
    w (h) and scalar b."""
    with pytest.raises(ValueError, match="unknown cell"):
        ModelShape(cell="gru")
    params = NetworkParameters(ModelShape(d_i=2, layers=2, hidden=3))
    assert [(layer.W.shape, layer.U.shape, layer.b.shape) for layer in params.layers] == [
        ((12, 6), (12, 3), (12,)), ((12, 3), (12, 3), (12,))
    ]
    assert (params.head.w.shape, params.head.b.shape) == ((3,), ())


def test_lstm_step_flags_divergence():
    params = init_parameters(SCALAR_SHAPE, seed=0)
    dict(params.param_items())["layers.0.W_c"][...] = np.nan
    with pytest.raises(DivergenceError):
        forward_batch(fundamental_only([1.0]), params)


def test_param_items_are_views_of_the_stacked_layers():
    params = init_parameters(ModelShape(layers=2, hidden=3), seed=1)
    names = [name for name, _ in params.param_items()]
    gates = [f"layers.0.{kind}_{g}" for g in "fioc" for kind in "WUb"]
    assert names[6:18] == gates
    layer = params.layers[0]
    for j, g in enumerate("fioc"):
        rows = slice(3 * j, 3 * (j + 1))
        for kind, stacked in (("W", layer.W), ("U", layer.U), ("b", layer.b)):
            block = dict(params.param_items())[f"layers.0.{kind}_{g}"]
            assert np.shares_memory(block, stacked)
            np.testing.assert_array_equal(block, stacked[rows])
    dict(params.param_items())["layers.0.U_o"][1, 2] = 7.5
    assert layer.U[7, 2] == 7.5


@pytest.mark.parametrize(
    "shape", [ModelShape(layers=2, hidden=3), ModelShape(cell="rnn", layers=2, hidden=3, d_s=None)], ids=["lstm", "rnn"]
)
def test_every_parameter_array_is_a_view_of_the_vector(shape):
    params = init_parameters(shape, seed=1)
    items = params.param_items()
    assert all(np.shares_memory(array, params.vector) for _, array in items), "a block owns its memory"
    assert sum(array.size for _, array in items) == params.vector.size
    params.vector[...] = np.arange(params.vector.size)
    covered = np.sort(np.concatenate([array.ravel() for _, array in items]))
    np.testing.assert_array_equal(covered, np.arange(params.vector.size))  # each element once

    # A model owns its vector: a new model of the same shape starts at zero
    # and shares no memory with it.
    zeros = NetworkParameters(shape)
    assert all(np.shares_memory(array, zeros.vector) for _, array in zeros.param_items())
    assert not np.shares_memory(zeros.vector, params.vector)
    assert not np.any(zeros.vector)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_both_cells_name_the_input_weight_w_and_the_recurrent_weight_u(cell, layers):
    """One vocabulary for both cells: each layer's items name its input
    weight W (hidden x input) and its recurrent weight U (hidden x hidden),
    as the memory cell's gate blocks W_f ... W_c and U_f ... U_c, views of
    the layer's fields of the same names. All items tile `vector` once."""
    shape = ModelShape(cell=cell, d_i=2, layers=layers, hidden=3)
    params = NetworkParameters(shape)
    items = params.param_items()
    kinds = [f"{kind}_{g}" for g in "fioc" for kind in "WUb"] if cell == "lstm" else ["W", "U"]
    for k, layer in enumerate(params.layers):
        prefix = f"layers.{k}."
        named = {name[len(prefix):]: array for name, array in items if name.startswith(prefix)}
        assert list(named) == kinds
        inputs = shape.fused_dim if k == 0 else shape.hidden
        for kind in ("W", "U"):
            blocks = [named[f"{kind}_{g}"] for g in "fioc"] if cell == "lstm" else [named[kind]]
            for block in blocks:
                assert block.shape == (3, inputs if kind == "W" else 3)
                assert np.shares_memory(block, getattr(layer, kind))

    params.vector[...] = np.arange(params.vector.size)
    covered = np.sort(np.concatenate([array.ravel() for _, array in items]))
    np.testing.assert_array_equal(covered, np.arange(params.vector.size))


def test_backward_returns_gradients_in_the_parameter_layout():
    params = init_parameters(ModelShape(layers=2, hidden=3), seed=3)
    cache = forward_batch(one_window(np.ones((3, 3)) * 0.2, np.ones((3, 3)) * 0.1, np.ones((3, 1)) * 0.6), params)
    grads = backward_batch(cache, np.array([1.5]))
    assert isinstance(grads, NetworkParameters) and grads.shape == params.shape
    assert all(np.shares_memory(array, grads.vector) for _, array in grads.param_items())
    assert not np.shares_memory(grads.vector, params.vector)


# --- forward -----------------------------------------------------------------


def test_forward_zero_parameters_returns_head_bias():
    params = zeroed(init_parameters(ModelShape(layers=3, hidden=4, d_a=2, d_f=2, d_s=1), seed=0))
    params.head.b[...] = 0.625
    cache = forward_batch(one_window(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 1))), params)
    assert cache.predictions.tolist() == [0.625]


def test_forward_single_step_equals_step_stack():
    params = init_parameters(ModelShape(layers=2, hidden=3, d_a=2, d_f=2, d_s=1, d_i=2), seed=4)
    windows = [
        ([[0.3, -0.2]], [[0.1, 0.9]], [[0.7]]),
        ([[-1.1, 0.4]], [[0.6, -0.3]], [[0.2]]),
    ]
    streams = tuple(np.array([w[j] for w in windows]) for j in range(3))
    predictions = forward_batch(streams, params).predictions
    for prediction, window in zip(predictions, windows):
        assert abs(prediction - python_lstm_forward(window, dict(params.param_items()), layers=2)) < 1e-12


def test_forward_two_step_scalar_manual_unroll():
    params = init_parameters(SCALAR_SHAPE, seed=9)
    a = np.array([[0.4], [-0.3]])
    f = np.array([[0.2], [0.1]])
    s = np.array([[0.9], [0.1]])
    cache = forward_batch(one_window(a, f, s), params)

    weights = dict(params.param_items())
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = c = 0.0
    for t in range(2):
        fused = [
            float(params.fusion.W_A[0, 0] * a[t, 0] + params.fusion.b_A[0]),
            float(params.fusion.W_F[0, 0] * f[t, 0] + params.fusion.b_F[0]),
            float(params.fusion.W_S[0, 0] * s[t, 0] + params.fusion.b_S[0]),
        ]
        # the cell sees the 3-wide fused vector through the gate input weights
        pre = {
            g: sum(float(weights[f"layers.0.W_{g}"][0, j]) * fused[j] for j in range(3))
            + float(weights[f"layers.0.U_{g}"][0, 0]) * h
            + float(weights[f"layers.0.b_{g}"][0])
            for g in "fioc"
        }
        c = sig(pre["f"]) * c + sig(pre["i"]) * math.tanh(pre["c"])
        h = sig(pre["o"]) * math.tanh(c)
    expected = h * float(params.head.w[0]) + float(params.head.b)
    assert abs(cache.predictions[0] - expected) < 1e-12
    assert len(cache.layers) == 1 and cache.layers[0].f.shape == (2, 1, 1)


def test_forward_is_bit_reproducible():
    params = init_parameters(ModelShape(layers=3, hidden=8), seed=3)
    rng = np.random.default_rng(0)
    streams = (
        rng.normal(size=(4, 6, 3)),
        rng.normal(size=(4, 6, 3)),
        rng.uniform(size=(4, 6, 1)),
    )
    first = forward_batch(streams, params).predictions
    second = forward_batch(streams, params).predictions
    assert np.array_equal(first, second)


def test_forward_stream_shape_errors():
    """Each stream must have the width its projection reads, and a model
    with a sentiment projection needs the sentiment stream."""
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    with pytest.raises(ValueError, match="fundamental stream dim 5 != expected 3"):
        forward_batch((np.zeros((1, 3, 5)), np.zeros((1, 3, 3)), np.zeros((1, 3, 1))), params)
    with pytest.raises(ValueError, match="technical stream dim 2 != expected 3"):
        forward_batch((np.zeros((1, 3, 3)), np.zeros((1, 3, 2)), np.zeros((1, 3, 1))), params)
    with pytest.raises(ValueError, match="sentiment stream dim 2 != expected 1"):
        forward_batch((np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), np.zeros((1, 3, 2))), params)
    with pytest.raises(ValueError, match="sentiment stream"):
        forward_batch((np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), None), params)


# --- stream fusion: each stream's affine projection, concatenated fundamental,
# technical, sentiment into the first layer's cached input --------------------


def projections(W_A, b_A, W_F, b_F, W_S=None, b_S=None) -> NetworkParameters:
    """A one-unit tanh model whose stream projections are these arrays."""
    shape = ModelShape(cell="rnn", d_a=W_A.shape[1], d_f=W_F.shape[1], d_s=None if W_S is None else W_S.shape[1],
                       d_i=W_A.shape[0], layers=1, hidden=1)
    params = NetworkParameters(shape)
    for W, b, (W_view, b_view) in zip((W_A, W_F, W_S), (b_A, b_F, b_S), params.fusion.projections()):
        W_view[...], b_view[...] = W, b
    return params


def fused(params: NetworkParameters, a, f, s=None) -> np.ndarray:
    """The fused input vector `forward_batch` feeds the first layer for a
    one-step window with stream vectors a, f and s."""
    streams = tuple(None if v is None else np.asarray(v, dtype=np.float64)[None, None] for v in (a, f, s))
    return forward_batch(streams, params).x[0, :, 0]


def test_project_identity():
    v = np.array([1.0, -2.0, 3.0])
    out = fused(projections(np.eye(3), np.zeros(3), np.zeros((3, 1)), np.zeros(3)), v, [5.0])
    np.testing.assert_array_equal(out[:3], v)


def test_project_constant_map():
    b = np.array([4.0, 5.0])
    out = fused(projections(np.zeros((2, 3)), b, np.zeros((2, 1)), np.zeros(2)), [9.0, 9.0, 9.0], [1.0])
    np.testing.assert_array_equal(out[:2], b)


def test_project_matches_brute_force():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    v = rng.normal(size=3)
    expected = np.array([sum(W[i, j] * v[j] for j in range(3)) + b[i] for i in range(4)])
    out = fused(projections(np.zeros((4, 2)), np.zeros(4), W, b), [0.0, 0.0], v)
    np.testing.assert_allclose(out[4:], expected, atol=1e-12)


def test_project_shape_errors():
    fusion = projections(np.zeros((4, 3)), np.zeros(4), np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(ValueError, match="fundamental stream dim"):
        fused(fusion, np.zeros(2), np.zeros(3))


def test_fuse_width():
    fusion = projections(np.ones((4, 2)), np.zeros(4), np.ones((4, 2)), np.zeros(4), np.ones((4, 1)), np.zeros(4))
    assert fused(fusion, np.zeros(2), np.ones(2), [2.0]).shape == (12,)


def _identity_fusion(with_sentiment: bool = True) -> NetworkParameters:
    sentiment = (np.eye(2), np.zeros(2)) if with_sentiment else (None, None)
    return projections(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), *sentiment)


def test_fuse_concatenation_order():
    out = fused(_identity_fusion(), [1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_fuse_without_sentiment():
    out = fused(_identity_fusion(with_sentiment=False), [1.0, 2.0], [3.0, 4.0])
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_fuse_dimension_mismatch():
    fusion = projections(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="technical stream dim 3 != expected 2"):
        fused(fusion, np.zeros(3), np.zeros(3), [0.5])
    with pytest.raises(ValueError, match="sentiment stream dim 2 != expected 1"):
        fused(fusion, np.zeros(3), np.zeros(2), [0.5, 0.5])


def test_fuse_components_recoverable():
    rng = np.random.default_rng(1)
    W_A, W_F, W_S = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2, 1))
    b_A, b_F, b_S = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
    a, f, s = rng.normal(size=3), rng.normal(size=3), rng.uniform(size=1)
    out = fused(projections(W_A, b_A, W_F, b_F, W_S, b_S), a, f, s)
    np.testing.assert_allclose(out[:2], W_A @ a + b_A, atol=1e-15)
    np.testing.assert_allclose(out[2:4], W_F @ f + b_F, atol=1e-15)
    np.testing.assert_allclose(out[4:], W_S @ s + b_S, atol=1e-15)


@settings(max_examples=60)
@given(
    alpha=st.floats(-5.0, 5.0),
    beta=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**31),
)
def test_project_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    fusion = projections(rng.normal(size=(3, 4)), np.zeros(3), np.zeros((3, 1)), np.zeros(3))
    v1 = rng.normal(size=4)
    v2 = rng.normal(size=4)
    lhs = fused(fusion, alpha * v1 + beta * v2, [0.0])
    rhs = alpha * fused(fusion, v1, [0.0]) + beta * fused(fusion, v2, [0.0])
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_default_width_never_compresses():
    assert ModelShape(d_a=3, d_f=3, d_s=1).width == 3
    assert ModelShape(d_a=2, d_f=5, d_s=None).width == 5
    assert ModelShape(d_a=2, d_f=5, d_s=None, d_i=1).width == 1


def test_fuse_streams_round_trip():
    fusion = projections(
        np.eye(2), np.zeros(2), 2.0 * np.eye(2), np.zeros(2), np.array([[1.0], [0.0]]), np.array([0.5, 0.5])
    )
    out = fused(fusion, [1.0, 2.0], [3.0, 4.0], [1.0])
    assert out.tolist() == [1.0, 2.0, 6.0, 8.0, 1.5, 0.5]


def test_fusion_parameters_shape_checks():
    """Each projection maps its stream to the shared width, and a model has
    W_S and b_S together or neither."""
    for d_s in (2, None):
        fusion = NetworkParameters(ModelShape(d_a=3, d_f=4, d_s=d_s, d_i=5, layers=1, hidden=2)).fusion
        widths = (3, 4) if d_s is None else (3, 4, d_s)
        assert [(W.shape, b.shape) for W, b in fusion.projections()] == [((5, d), (5,)) for d in widths]
        assert (fusion.W_S is None) == (fusion.b_S is None) == (d_s is None)


# --- buffer reuse --------------------------------------------------------------


def _random_streams(seed: int, windows: int, steps: int, sentiment: bool) -> tuple:
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(windows, steps, 3)),
        rng.normal(size=(windows, steps, 3)),
        rng.uniform(size=(windows, steps, 1)) if sentiment else None,
    )


@pytest.mark.parametrize("sentiment", [True, False], ids=["sentiment", "ablated"])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_forward_into_a_stale_cache_equals_a_fresh_forward(cell, sentiment):
    shape = ModelShape(cell=cell, d_s=1 if sentiment else None, layers=3, hidden=5)
    params, other = init_parameters(shape, seed=1), init_parameters(shape, seed=2)
    streams = _random_streams(0, windows=4, steps=6, sentiment=sentiment)
    stale = forward_batch(_random_streams(9, windows=4, steps=6, sentiment=sentiment), other)
    stale_buffers = stale.buffers()
    fresh = forward_batch(streams, params)
    # The cache stands for its own model: load the parameters into it.
    other.vector[...] = params.vector
    reused = forward_batch(streams, stale)
    assert reused is stale and reused.params is other
    assert all(a is b for a, b in zip(reused.buffers(), stale_buffers))
    assert len(reused.buffers()) == len(fresh.buffers())
    for got, want in zip(reused.buffers(), fresh.buffers()):
        assert np.array_equal(got, want)
    assert np.array_equal(reused.predictions, fresh.predictions)


def test_reused_lstm_gates_are_row_blocks_of_one_buffer():
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=3)
    streams = _random_streams(1, windows=3, steps=5, sentiment=True)
    cache = forward_batch(streams, forward_batch(streams, params))
    for lc in cache.layers:
        assert lc.gates.shape == (5, 16, 3)
        for j, gate in enumerate((lc.f, lc.i, lc.o, lc.g)):
            rows = lc.gates[:, 4 * j : 4 * (j + 1)]
            assert gate.__array_interface__ == rows.__array_interface__  # the same memory, strides and shape


@pytest.mark.parametrize("windows, steps", [(5, 6), (4, 7)], ids=["windows", "steps"])
def test_a_cache_of_other_windows_is_rejected(windows, steps):
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=0)
    streams = _random_streams(1, windows, steps, sentiment=True)
    for into in (params, last_step_cache(params, windows, steps)):
        cache = forward_batch(streams, into)
        before = [a.copy() for a in cache.buffers()]
        with pytest.raises(ValueError, match=rf"cache holds {windows} windows of {steps} steps, the streams \(4, 6\)"):
            forward_batch(_random_streams(0, windows=4, steps=6, sentiment=True), cache)
        assert all(np.array_equal(a, b) for a, b in zip(cache.buffers(), before))


@pytest.mark.parametrize(
    "reader", [lambda cache: backward_batch(cache, np.ones(cache.n_windows)), forget_gate_sum],
    ids=["backward", "mean_forget"],
)
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_a_last_step_cache_is_refused_where_every_step_is_read(cell, reader):
    params = init_parameters(ModelShape(cell=cell, layers=2, hidden=4), seed=0)
    cache = forward_batch(_random_streams(1, windows=3, steps=5, sentiment=True), last_step_cache(params, 3, 5))
    with pytest.raises(ValueError, match="keeps only the last step"):
        reader(cache)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_a_one_step_last_step_cache_holds_every_step(cell):
    params = init_parameters(ModelShape(cell=cell, layers=2, hidden=4), seed=0)
    streams = _random_streams(1, windows=3, steps=1, sentiment=True)
    fresh, last = forward_batch(streams, params), forward_batch(streams, last_step_cache(params, 3, 1))
    d_pred = np.arange(3.0)
    assert np.array_equal(backward_batch(last, d_pred).vector, backward_batch(fresh, d_pred).vector)
    if cell == "lstm":
        assert forget_gate_sum(last) == forget_gate_sum(fresh)


def test_gate_bounds_and_memory_decomposition():
    params = init_parameters(ModelShape(layers=3, hidden=6), seed=11)
    rng = np.random.default_rng(5)
    streams = (
        rng.normal(size=(3, 7, 3)),
        rng.normal(size=(3, 7, 3)),
        rng.uniform(size=(3, 7, 1)),
    )
    cache = forward_batch(streams, params)
    for lc in cache.layers:
        for arr in (lc.f, lc.i, lc.o):
            assert np.all(arr > 0.0) and np.all(arr < 1.0)
        assert np.all(np.abs(hidden(lc)) < 1.0)
        # c_t = f_t * c_{t-1} + i_t * candidate, re-checkable exactly
        for t in range(cache.steps):
            c_prev = lc.c[t - 1] if t > 0 else np.zeros_like(lc.c[0])
            np.testing.assert_array_equal(lc.c[t], lc.f[t] * c_prev + lc.i[t] * lc.g[t])


# --- backward ----------------------------------------------------------------


def test_backward_zero_upstream_gives_zero_gradients():
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=1)
    cache = forward_batch(one_window(np.ones((3, 3)) * 0.2, np.ones((3, 3)) * 0.1, np.ones((3, 1)) * 0.6), params)
    grads = dict(backward_batch(cache, np.zeros(1)).param_items())
    for name, g in grads.items():
        assert not np.any(g), name


def test_backward_head_bias_gradient_is_upstream():
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=2)
    cache = forward_batch(one_window(np.ones((3, 3)) * 0.2, np.ones((3, 3)) * 0.1, np.ones((3, 1)) * 0.6), params)
    grads = dict(backward_batch(cache, np.array([-2.5])).param_items())
    assert float(grads["head.b"]) == -2.5


def weighted_sum(predictions: np.ndarray, weights: np.ndarray) -> float:
    """A fixed linear weighting of the predictions: its upstream gradient
    is the weights themselves, an arbitrary vector."""
    return float(weights @ predictions)


def weighted_sum_gradient(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return weights


def test_backward_matches_finite_differences_lstm():
    _check_weighted_sum(ModelShape(cell="lstm", layers=2, hidden=4, d_a=2, d_f=2, d_s=1, d_i=2), seed=7)


def test_backward_matches_finite_differences_rnn():
    _check_weighted_sum(ModelShape(cell="rnn", layers=2, hidden=4, d_a=2, d_f=2, d_s=1, d_i=2), seed=8)


def test_backward_matches_finite_differences_no_sentiment():
    _check_weighted_sum(ModelShape(cell="lstm", layers=2, hidden=3, d_a=2, d_f=3, d_s=None), seed=9)


def _check_weighted_sum(shape: ModelShape, seed: int) -> None:
    """The backward pass under an arbitrary upstream gradient: the objective
    is a fixed linear weighting of the predictions, whose gradient is the
    weights themselves."""
    errors = gradient_check(shape, seed, lambda p, weights: float(weights @ p), lambda p, weights: weights)
    assert max(errors.values()) < 1e-5, errors


def test_backward_upstream_shape_mismatch():
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    cache = forward_batch(one_window(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1))), params)
    with pytest.raises(ValueError, match="upstream gradient"):
        backward_batch(cache, np.zeros(3))


# --- reference kernel --------------------------------------------------------

KERNEL_TOLERANCE = 1e-12
REFERENCE_CASES = {
    "lstm": (ModelShape(cell="lstm", layers=3, hidden=6), 5, 4),
    "lstm_no_sentiment": (ModelShape(cell="lstm", layers=2, hidden=7, d_s=None), 5, 4),
    "lstm_one_layer": (ModelShape(cell="lstm", layers=1, hidden=16), 5, 4),
    "rnn": (ModelShape(cell="rnn", layers=3, hidden=6), 5, 4),
    "rnn_no_sentiment": (ModelShape(cell="rnn", layers=2, hidden=7, d_s=None), 5, 4),
    "one_step": (ModelShape(cell="lstm", layers=2, hidden=6), 1, 4),
    "rnn_one_step": (ModelShape(cell="rnn", layers=2, hidden=6), 1, 4),
    "one_window": (ModelShape(cell="lstm", layers=2, hidden=6), 5, 1),
    "hidden_below_fused": (ModelShape(cell="lstm", layers=2, hidden=5, d_i=2), 4, 3),
}


def _reference_case(name: str):
    return _random_case(*REFERENCE_CASES[name], seed=len(name))


def _random_case(shape: ModelShape, steps: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    params = init_parameters(shape, seed=seed)
    streams = (
        rng.normal(size=(n, steps, shape.d_a)),
        rng.normal(size=(n, steps, shape.d_f)),
        rng.uniform(size=(n, steps, shape.d_s)) if shape.d_s else None,
    )
    return params, streams, rng.normal(size=n)


def _assert_kernel_matches_reference(params, streams, d_pred) -> None:
    want_pred, want_caches = reference_forward(streams, params)
    want_grads = reference_backward(streams, params, want_caches, d_pred)

    cache = forward_batch(streams, params)
    np.testing.assert_allclose(cache.predictions, want_pred, rtol=0, atol=KERNEL_TOLERANCE)
    x = cache.x
    for lc, want in zip(cache.layers, want_caches):
        # A memory-cell layer holds gates and c: its input is the fused
        # input or the layer below's h, and h and tanh(c) are recomputed.
        held = {"x": x, "h": hidden(lc), "tanh_c": np.tanh(lc.c) if hasattr(lc, "c") else None}
        for key, array in want.items():
            got = held[key] if key in held else getattr(lc, key)
            np.testing.assert_allclose(got.transpose(0, 2, 1), array, rtol=0, atol=KERNEL_TOLERANCE, err_msg=key)
        x = hidden(lc)
    np.testing.assert_array_equal(cache.h, x[-1])
    grads = dict(backward_batch(cache, d_pred).param_items())
    assert list(grads) == [name for name, _ in params.param_items()]
    for name, g in grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=KERNEL_TOLERANCE, err_msg=name)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_matches_reference(case):
    params, streams, d_pred = _reference_case(case)
    assert params.shape.hidden != params.shape.fused_dim
    _assert_kernel_matches_reference(params, streams, d_pred)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_a_first_layer_as_wide_as_its_input_matches_the_reference(cell):
    """hidden == fused_dim: the first layer, like every layer above it,
    writes its input gradient over its upstream gradient buffer."""
    shape = ModelShape(cell=cell, layers=2, hidden=9)
    assert shape.hidden == shape.fused_dim
    _assert_kernel_matches_reference(*_random_case(shape, steps=5, n=4, seed=11))
    _check_weighted_sum(shape, seed=11)


@pytest.mark.parametrize("hidden", [5, 9], ids=["first layer allocates", "every layer in place"])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_backward_leaves_the_cache_and_the_upstream_gradient_unchanged(cell, hidden):
    params, streams, d_pred = _random_case(ModelShape(cell=cell, layers=3, hidden=hidden), steps=6, n=4, seed=12)
    cache = forward_batch(streams, params)
    held = cache.buffers() + [s for s in cache.streams if s is not None] + [cache.predictions, d_pred]
    before = [a.copy() for a in held]
    first = backward_batch(cache, d_pred)
    assert all(np.array_equal(a, b) for a, b in zip(held, before))
    assert np.array_equal(backward_batch(cache, d_pred).vector, first.vector)


@pytest.mark.parametrize("depth", ["every step", "last step"])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_forward_leaves_the_parameters_and_the_streams_unchanged(cell, depth):
    """A forward only reads the parameter vector and the streams, first into
    new arrays, then into the cache it returned: the memory-cell stack's
    stacked [W | U | b] copies, whose f, i, o rows it negates, and its input
    buffers never alias them. So the second forward repeats the first's
    predictions bit for bit."""
    params, streams, _ = _random_case(ModelShape(cell=cell, layers=3, hidden=5), steps=6, n=4, seed=13)
    held = [params.vector] + [s for s in streams if s is not None]
    before = [a.tobytes() for a in held]
    into = params if depth == "every step" else last_step_cache(params, 4, 6)
    predictions = []
    for _ in range(2):
        into = forward_batch(streams, into)
        assert [a.tobytes() for a in held] == before
        predictions.append(into.predictions.tobytes())
    assert predictions[0] == predictions[1]


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_forward_into_a_last_step_cache_equals_a_full_forward(case):
    params, streams, _ = _reference_case(case)
    n, steps = streams[0].shape[:2]
    full = forward_batch(streams, params)
    # A stale cache: computed from other parameters and other streams, then
    # loaded with the parameters, since a cache stands for its own model.
    other = init_parameters(params.shape, seed=99)
    rng = np.random.default_rng(99)
    stale = forward_batch(
        tuple(None if x is None else rng.normal(size=x.shape) for x in streams), last_step_cache(other, n, steps)
    )
    other.vector[...] = params.vector
    for into in (last_step_cache(params, n, steps), stale):
        last = forward_batch(streams, into)
        assert np.array_equal(last.predictions, full.predictions)
        assert np.array_equal(last.x, full.x) and np.array_equal(last.h, full.h)
        for lc, want in zip(last.layers, full.layers):
            assert type(lc) is type(want)
            for name, got in vars(lc).items():
                # Every layer array keeps the last step only.
                assert np.array_equal(got, getattr(want, name)[-got.shape[0] :]), name
            assert np.array_equal(hidden(lc)[-1], hidden(want)[-1])


@settings(max_examples=15, deadline=None)
@given(cell=st.sampled_from(["lstm", "rnn"]), windows=st.integers(2, 900), seed=st.integers(0, 2**16))
@example(cell="lstm", windows=257, seed=0)
@example(cell="lstm", windows=327, seed=0)
@example(cell="lstm", windows=883, seed=0)
@example(cell="rnn", windows=883, seed=0)
def test_a_batch_and_its_two_halves_agree_within_1e_12(cell, windows, seed):
    """`cli.cmd_predict` forwards a memory cell's windows above
    `cli.HALVES_ABOVE` as two halves, each into a last-step cache of its
    own. OpenBLAS picks its edge kernels by column count, so the halves
    need not give one call's bits (differences of ~1e-16 were seen at
    257-883 windows); they must agree within 1e-12, on the paper's 3 x 32
    stack of either cell."""
    params = init_parameters(ModelShape(cell=cell), seed=seed)
    streams = _random_streams(seed, windows=windows, steps=12, sentiment=True)
    whole = forward_batch(streams, last_step_cache(params, windows, 12)).predictions
    middle = -(-windows // 2)
    parts = []
    for half in (range(middle), range(middle, windows)):
        streams_half = tuple(s[half.start : half.stop] for s in streams)
        parts.append(forward_batch(streams_half, last_step_cache(params, len(half), 12)).predictions)
    assert np.max(np.abs(np.concatenate(parts) - whole)) <= 1e-12


def test_a_last_step_cache_is_under_a_quarter_of_a_full_cache():
    """The paper's 3 x 32 LSTM over 883 windows of 12 steps, an 18-year
    daily history: the buffers, and the traced peak of one forward into a
    new last-step cache, against the buffers of a full forward."""
    params = init_parameters(ModelShape(), seed=0)
    streams = _random_streams(0, windows=883, steps=12, sentiment=True)
    full_bytes = sum(a.nbytes for a in forward_batch(streams, params).buffers())
    tracemalloc.start()
    try:
        last = forward_batch(streams, last_step_cache(params, 883, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    last_bytes = sum(a.nbytes for a in last.buffers())
    assert last_bytes <= 0.25 * full_bytes
    assert peak <= 0.3 * full_bytes
    # In bytes: x + 3 x one step of (gates + c) + the top h = 4,379,680,
    # and a traced peak of 6,072,192-6,072,816 (it moves by a few hundred
    # bytes from run to run): the buffers, the 1,617,184 bytes of scratch
    # the cache owns, and about 75 KB of numpy temporaries. While each
    # stream's bias was added to its strided block of the fused input,
    # numpy's 192,008 bytes of ufunc buffers for that add lifted the peak
    # to 6,199,448. Before the cache owned its scratch, the forward
    # allocated it after those ufunc buffers were freed, and the peak read
    # 6,009,952. When every layer held every step's h, they read
    # 12,291,360 and 13,658,560.
    assert last_bytes <= 4.5e6
    assert peak <= 6.5e6


def test_a_forward_into_a_prepared_last_step_cache_on_a_thread_allocates_no_activations():
    """`cli._predict_windows` builds both halves' last-step caches in the
    caller and forwards the second half on a thread. The paper's 3 x 32
    LSTM over 883 windows of 12 steps (an 18-year daily history), each a
    view of rows held once as `features` slides them, run as that thread
    runs it: the traced peak read 65,836-66,276 bytes, most of it numpy's
    iterator buffer for the fused input's bias add, at most 64 KiB
    whatever the windows. Before the cache owned the scratch its forward
    writes ([W | U | b] copies, [x_t; h; 1] buffers and the tanh(c) row),
    it read 1,621,788-1,622,460. Before `_fuse_batch` added the fused
    bias once over the contiguous input, each stream's bias add on its
    strided block took numpy's iterator 192,008 bytes of buffers, and it
    read 193,148-193,436. The bound is the measured peak, rounded up to
    0.1 MB."""
    params = init_parameters(ModelShape(), seed=0)
    rng = np.random.default_rng(0)
    rows = (rng.normal(size=(894, 3)), rng.normal(size=(894, 3)), rng.uniform(size=(894, 1)))
    streams = tuple(np.lib.stride_tricks.sliding_window_view(r, 12, axis=0).transpose(0, 2, 1) for r in rows)
    cache = last_step_cache(params, 883, 12)
    done = []
    worker = threading.Thread(target=lambda: done.append(forward_batch(streams, cache)), name="trendlab-predict-half")
    tracemalloc.start()
    try:
        worker.start()
        worker.join()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(done) == 1 and done[0] is cache
    assert peak <= 1e5


def test_a_tanh_last_step_cache_holds_one_step_per_layer():
    """The 3 x 32 tanh stack over 883 windows of 12 steps: x + 3 x one step
    of s + the top h = 1,667,104 bytes, against 9,126,688 for a full
    forward, which holds every step of s. Before the tanh stack ran
    step-major, its last-step cache held every step as well."""
    params = init_parameters(ModelShape(cell="rnn"), seed=0)
    streams = _random_streams(0, windows=883, steps=12, sentiment=True)
    full_bytes = sum(a.nbytes for a in forward_batch(streams, params).buffers())
    last_bytes = sum(a.nbytes for a in forward_batch(streams, last_step_cache(params, 883, 12)).buffers())
    assert (full_bytes, last_bytes) == (9_126_688, 1_667_104)
    assert last_bytes <= 0.25 * full_bytes


def test_a_full_forward_holds_gates_and_c_only():
    """The paper's 3 x 32 LSTM over 883 windows of 12 steps: the fused input
    plus, per layer, every step's gates and c, x + 3 x (gates + c) =
    41,451,552 bytes, and the top layer's last h. Neither tanh(c) nor any
    layer's h is held at every step: the backward pass recomputes them.
    Holding every step's h as well read 49,589,280 bytes."""
    params = init_parameters(ModelShape(), seed=0)
    cache = forward_batch(_random_streams(0, windows=883, steps=12, sentiment=True), params)
    top_h = 32 * 883 * 8
    assert sum(a.nbytes for a in cache.buffers()) == 41_451_552 + top_h


def test_saturated_gates_raise_no_overflow_warning():
    # Gate pre-activations near -1000 overflow exp(-z) in 1 / (1 + exp(-z));
    # the limits 0 and 1 are exact and no warning may surface.
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=6)
    weights = dict(params.param_items())
    for k in range(2):
        weights[f"layers.{k}.b_f"][...] = -1000.0
        weights[f"layers.{k}.b_i"][...] = 1000.0
        weights[f"layers.{k}.b_o"][...] = -1000.0
    rng = np.random.default_rng(6)
    streams = (rng.normal(size=(3, 5, 3)), rng.normal(size=(3, 5, 3)), rng.uniform(size=(3, 5, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = forward_batch(streams, params)
    for lc in cache.layers:
        assert np.all(lc.f == 0.0) and np.all(lc.i == 1.0) and np.all(lc.o == 0.0)
    assert np.all(np.isfinite(cache.predictions))


def test_gates_saturated_open_pass_no_gradient_into_their_weights():
    # With b_f, b_i and b_o at +1000, f = i = o = 1.0 exactly, so the
    # sigmoid derivative s (1 - s) is exactly 0, and so is every gradient
    # into those gates' weights and biases; the candidate's still flows.
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=6)
    weights = dict(params.param_items())
    for k in range(2):
        for gate in "fio":
            weights[f"layers.{k}.b_{gate}"][...] = 1000.0
    rng = np.random.default_rng(6)
    streams = (rng.normal(size=(3, 5, 3)), rng.normal(size=(3, 5, 3)), rng.uniform(size=(3, 5, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = forward_batch(streams, params)
        grads = dict(backward_batch(cache, rng.normal(size=3)).param_items())
    for lc in cache.layers:
        assert np.all(lc.f == 1.0) and np.all(lc.i == 1.0) and np.all(lc.o == 1.0)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    for k in range(2):
        for kind in "WUb":
            for gate in "fio":
                assert np.all(grads[f"layers.{k}.{kind}_{gate}"] == 0.0)
            assert np.any(grads[f"layers.{k}.{kind}_c"] != 0.0)


# --- initialization ----------------------------------------------------------


def test_init_is_deterministic_per_seed():
    shape = ModelShape(layers=3, hidden=8)
    first = init_parameters(shape, seed=42)
    second = init_parameters(shape, seed=42)
    for (name_a, a), (_, b) in zip(first.param_items(), second.param_items()):
        assert np.array_equal(a, b), name_a


def test_init_draws_gate_by_gate():
    """A seed keeps its values: the projections W_A, W_F, W_S, then per
    layer W_g and U_g for g in f, i, o, c, then the head, in that order."""
    rng = np.random.default_rng(7)

    def draw(fan_out: int, fan_in: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    expected = {"fusion.W_A": draw(2, 2), "fusion.W_F": draw(2, 3), "fusion.W_S": draw(2, 1)}
    for k, size in enumerate((6, 3)):
        for g in "fioc":
            expected[f"layers.{k}.W_{g}"] = draw(3, size)
            expected[f"layers.{k}.U_{g}"] = draw(3, 3)
    expected["head.w"] = draw(1, 3)[0]
    weights = dict(init_parameters(ModelShape(layers=2, hidden=3, d_a=2, d_f=3, d_s=1, d_i=2), seed=7).param_items())
    for name, want in expected.items():
        np.testing.assert_array_equal(weights[name], want, err_msg=name)


def test_init_forget_bias_is_one():
    weights = dict(init_parameters(ModelShape(layers=3, hidden=8), seed=0).param_items())
    for k in range(3):
        assert np.all(weights[f"layers.{k}.b_f"] == 1.0)
        assert not any(np.any(weights[f"layers.{k}.b_{g}"]) for g in "ioc")
    toggled = init_parameters(ModelShape(layers=1, hidden=4), seed=0, forget_bias=0.0)
    assert not np.any(toggled.layers[0].b)


def test_init_respects_glorot_bound():
    shape = ModelShape(layers=2, hidden=5, d_a=3, d_f=3, d_s=1, d_i=3)
    for seed in range(50):
        params = init_parameters(shape, seed)
        for name, array in params.param_items():
            if ".b_" in name or name.endswith(".b") or name.startswith("fusion.b"):
                continue
            if array.ndim != 2 and name != "head.w":
                continue
            if name == "head.w":
                fan_in, fan_out = array.shape[0], 1
            else:
                fan_out, fan_in = array.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(array) <= bound), name


def test_rnn_parameters_have_no_bias():
    params = init_parameters(ModelShape(cell="rnn", layers=2, hidden=4), seed=0)
    names = [name for name, _ in params.param_items()]
    assert "layers.0.W" in names and "layers.0.U" in names
    assert not any(name.startswith("layers.0.b") for name in names)


# --- forget-gate sum ------------------------------------------------------------


def test_mean_forget_zero_weight_net_with_unit_bias():
    params = zeroed(init_parameters(ModelShape(layers=2, hidden=4), seed=0))
    for k in range(2):
        dict(params.param_items())[f"layers.{k}.b_f"][...] = 1.0
    cache = forward_batch(one_window(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 1))), params)
    total, count = forget_gate_sum(cache)
    assert count == 2 * 3 * 4  # layers x steps x units of one window
    assert total / count == scalar_sigmoid(1.0)


def test_mean_forget_simple_average():
    # Zero weights: layer 0's forget gates are sigmoid(0) = 0.5 exactly,
    # layer 1's sigmoid(-1000) = 0 exactly, in equal numbers.
    params = zeroed(init_parameters(ModelShape(layers=2, hidden=4), seed=0))
    dict(params.param_items())["layers.1.b_f"][...] = -1000.0
    cache = forward_batch(one_window(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 1))), params)
    total, count = forget_gate_sum(cache)
    assert (total, count) == (6.0, 24)
    assert total / count == 0.25


def test_mean_forget_of_a_tanh_stack_sums_nothing():
    params = init_parameters(ModelShape(cell="rnn", layers=1, hidden=2), seed=0)
    cache = forward_batch(one_window(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1))), params)
    total, count = forget_gate_sum(cache)
    assert (total, count) == (0.0, 0)
    assert (type(total), type(count)) == (float, int)


def test_all_gate_traces_cover_layers_and_windows():
    """The sum runs over every window, layer, step and unit, in that order:
    numpy's pairwise sum of them, and over the count numpy's mean."""
    params = init_parameters(ModelShape(layers=3, hidden=2), seed=0)
    rng = np.random.default_rng(3)
    streams = (rng.normal(size=(4, 5, 3)), rng.normal(size=(4, 5, 3)), rng.uniform(size=(4, 5, 1)))
    cache = forward_batch(streams, params)
    values = [
        float(lc.f[t, u, w])
        for w in range(4) for lc in cache.layers for t in range(5) for u in range(2)
    ]
    assert len(values) == 4 * 3 * 5 * 2
    total, count = forget_gate_sum(cache)
    assert (total, count) == (pairwise_sum(values), len(values))
    assert total / count == pairwise_mean(values) == np.mean(values)


def test_rnn_has_no_gate_traces():
    params = init_parameters(ModelShape(cell="rnn", layers=2, hidden=3), seed=0)
    cache = forward_batch(one_window(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 1))), params)
    assert [sorted(vars(lc)) for lc in cache.layers] == [["s"], ["s"]]
    assert cache.predictions.shape == (1,)
