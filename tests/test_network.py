from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from trendlab.errors import DivergenceError
from trendlab.fusion import FusionParameters
from trendlab.network import (
    GateTrace,
    HeadParameters,
    LstmLayerParameters,
    LstmState,
    ModelShape,
    NetworkParameters,
    RnnLayerParameters,
    all_gate_traces,
    backward_batch,
    backward_sequence,
    forward_batch,
    forward_sequence,
    gate_traces,
    init_parameters,
    lstm_step,
    mean_forget_activation,
    rnn_step,
)

from oracles import reference_backward, reference_forward, scalar_lstm_step, scalar_sigmoid

SCALAR_SHAPE = ModelShape(cell="lstm", d_a=1, d_f=1, d_s=1, d_i=1, layers=1, hidden=1)


def zeroed(params: NetworkParameters) -> NetworkParameters:
    for _, array in params.param_items():
        array[...] = 0.0
    return params


def scalar_window(steps: int, fill: float = 0.3):
    base = np.full((steps, 1), fill)
    return (base, base * 0.5, np.abs(base))


# --- rnn_step ----------------------------------------------------------------


def test_rnn_step_zero_maps_to_zero():
    out = rnn_step(np.array([1.0, 2.0]), np.array([0.5]), np.zeros((1, 2)), np.zeros((1, 1)))
    np.testing.assert_array_equal(out, np.zeros(1))


def test_rnn_step_saturates():
    out = rnn_step(np.array([50.0]), np.array([0.0]), np.array([[1.0]]), np.array([[0.0]]))
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_rnn_step_scalar_oracle():
    x, s, u, w = 0.37, -0.81, 1.3, -0.6
    got = rnn_step(np.array([x]), np.array([s]), np.array([[u]]), np.array([[w]]))
    assert abs(got[0] - math.tanh(u * x + w * s)) < 1e-12


def test_rnn_step_shape_errors():
    with pytest.raises(ValueError):
        rnn_step(np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        rnn_step(np.zeros(2), np.zeros(2), np.zeros((1, 2)), np.zeros((1, 1)))


# --- lstm_step ---------------------------------------------------------------


def zero_layer(hidden: int = 1, inputs: int = 1) -> LstmLayerParameters:
    z = lambda *shape: np.zeros(shape)
    return LstmLayerParameters(
        W_f=z(hidden, inputs), U_f=z(hidden, hidden), b_f=z(hidden),
        W_i=z(hidden, inputs), U_i=z(hidden, hidden), b_i=z(hidden),
        W_o=z(hidden, inputs), U_o=z(hidden, hidden), b_o=z(hidden),
        W_c=z(hidden, inputs), U_c=z(hidden, hidden), b_c=z(hidden),
    )


def test_lstm_step_all_zero():
    state, gates = lstm_step(np.zeros(1), LstmState.zeros(1), zero_layer())
    assert gates.f[0] == 0.5 and gates.i[0] == 0.5 and gates.o[0] == 0.5
    assert state.c[0] == 0.0 and state.h[0] == 0.0


def test_lstm_step_memory_retention():
    layer = zero_layer()
    layer.b_f[...] = 10.0
    layer.b_i[...] = -10.0
    layer.b_o[...] = 10.0
    state, gates = lstm_step(np.zeros(1), LstmState(np.zeros(1), np.ones(1)), layer)
    _, expected_c, oracle_gates = scalar_lstm_step(
        0.0, 0.0, 1.0, 0, 0, 10.0, 0, 0, -10.0, 0, 0, 10.0, 0, 0, 0.0
    )
    assert abs(state.c[0] - expected_c) < 1e-9
    assert abs(gates.f[0] - oracle_gates["f"]) < 1e-9
    assert state.c[0] == pytest.approx(0.99995, abs=5e-5)
    assert state.h[0] == pytest.approx(0.7615, abs=5e-4)


def test_lstm_step_memory_erasure():
    layer = zero_layer()
    layer.b_f[...] = -10.0
    state, _ = lstm_step(np.zeros(1), LstmState(np.zeros(1), np.ones(1)), layer)
    assert abs(state.c[0]) < 1e-4


def test_lstm_step_shape_errors():
    with pytest.raises(ValueError, match="input dim"):
        lstm_step(np.zeros(2), LstmState.zeros(1), zero_layer())
    with pytest.raises(ValueError, match="state size"):
        lstm_step(np.zeros(1), LstmState.zeros(2), zero_layer())


def test_lstm_step_flags_divergence():
    layer = zero_layer()
    layer.W_c[...] = np.nan
    with pytest.raises(DivergenceError):
        lstm_step(np.ones(1), LstmState.zeros(1), layer)


# --- forward -----------------------------------------------------------------


def test_forward_zero_parameters_returns_head_bias():
    params = zeroed(init_parameters(ModelShape(layers=3, hidden=4, d_a=2, d_f=2, d_s=1), seed=0))
    params.head.b[...] = 0.625
    window = (np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 1)))
    prediction, _, _ = forward_sequence(window, params)
    assert prediction == 0.625


def test_forward_single_step_equals_step_stack():
    params = init_parameters(ModelShape(layers=2, hidden=3, d_a=2, d_f=2, d_s=1, d_i=2), seed=4)
    a, f, s = np.array([[0.3, -0.2]]), np.array([[0.1, 0.9]]), np.array([[0.7]])
    prediction, _, _ = forward_sequence((a, f, s), params)

    fused = np.concatenate([
        params.fusion.W_A @ a[0] + params.fusion.b_A,
        params.fusion.W_F @ f[0] + params.fusion.b_F,
        params.fusion.W_S @ s[0] + params.fusion.b_S,
    ])
    x = fused
    for layer in params.layers:
        state, _ = lstm_step(x, LstmState.zeros(layer.hidden_size), layer)
        x = state.h
    expected = float(x @ params.head.w + params.head.b)
    assert abs(prediction - expected) < 1e-12


def test_forward_two_step_scalar_manual_unroll():
    params = init_parameters(SCALAR_SHAPE, seed=9)
    a = np.array([[0.4], [-0.3]])
    f = np.array([[0.2], [0.1]])
    s = np.array([[0.9], [0.1]])
    prediction, traces, _ = forward_sequence((a, f, s), params)

    layer = params.layers[0]
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
            g: sum(float(getattr(layer, f"W_{g}")[0, j]) * fused[j] for j in range(3))
            + float(getattr(layer, f"U_{g}")[0, 0]) * h
            + float(getattr(layer, f"b_{g}")[0])
            for g in "fioc"
        }
        c = sig(pre["f"]) * c + sig(pre["i"]) * math.tanh(pre["c"])
        h = sig(pre["o"]) * math.tanh(c)
    expected = h * float(params.head.w[0]) + float(params.head.b)
    assert abs(prediction - expected) < 1e-12
    assert len(traces) == 1 and traces[0].forget.shape == (2, 1)


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
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    with pytest.raises(ValueError, match="dim"):
        forward_batch((np.zeros((1, 3, 5)), np.zeros((1, 3, 3)), np.zeros((1, 3, 1))), params)
    with pytest.raises(ValueError, match="sentiment stream"):
        forward_batch((np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), None), params)


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
        assert np.all(np.abs(cache.layers[-1].h) < 1.0)
        # c_t = f_t * c_{t-1} + i_t * candidate, re-checkable exactly
        for t in range(cache.steps):
            c_prev = lc.c[t - 1] if t > 0 else np.zeros_like(lc.c[0])
            np.testing.assert_array_equal(lc.c[t], lc.f[t] * c_prev + lc.i[t] * lc.g[t])


# --- backward ----------------------------------------------------------------


def test_backward_zero_upstream_gives_zero_gradients():
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=1)
    window = (np.ones((3, 3)) * 0.2, np.ones((3, 3)) * 0.1, np.ones((3, 1)) * 0.6)
    _, _, cache = forward_sequence(window, params)
    grads = backward_sequence(cache, 0.0)
    for name, g in grads.items():
        assert not np.any(g), name


def test_backward_head_bias_gradient_is_upstream():
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=2)
    window = (np.ones((3, 3)) * 0.2, np.ones((3, 3)) * 0.1, np.ones((3, 1)) * 0.6)
    _, _, cache = forward_sequence(window, params)
    grads = backward_sequence(cache, -2.5)
    assert float(grads["head.b"]) == -2.5


def test_backward_matches_finite_differences_lstm():
    _finite_difference_check(ModelShape(cell="lstm", layers=2, hidden=4, d_a=2, d_f=2, d_s=1, d_i=2), seed=7)


def test_backward_matches_finite_differences_rnn():
    _finite_difference_check(ModelShape(cell="rnn", layers=2, hidden=4, d_a=2, d_f=2, d_s=1, d_i=2), seed=8)


def test_backward_matches_finite_differences_no_sentiment():
    _finite_difference_check(ModelShape(cell="lstm", layers=2, hidden=3, d_a=2, d_f=3, d_s=None), seed=9)


def _finite_difference_check(shape: ModelShape, seed: int) -> None:
    rng = np.random.default_rng(seed)
    params = init_parameters(shape, seed)
    streams = (
        rng.normal(size=(2, 4, shape.d_a)),
        rng.normal(size=(2, 4, shape.d_f)),
        rng.uniform(size=(2, 4, shape.d_s)) if shape.d_s else None,
    )
    weights = rng.normal(size=2)
    cache = forward_batch(streams, params)
    grads = backward_batch(cache, weights)
    step = 1e-6
    for name, array in params.param_items():
        numeric = np.empty_like(array)
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = array[idx]
            array[idx] = keep + step
            up = float(weights @ forward_batch(streams, params).predictions)
            array[idx] = keep - step
            down = float(weights @ forward_batch(streams, params).predictions)
            array[idx] = keep
            numeric[idx] = (up - down) / (2 * step)
        denom = max(np.linalg.norm(grads[name]), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(grads[name] - numeric) / denom < 1e-5, name


def test_backward_upstream_shape_mismatch():
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    window = (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1)))
    _, _, cache = forward_sequence(window, params)
    with pytest.raises(ValueError, match="upstream gradient"):
        backward_batch(cache, np.zeros(3))


# --- reference kernel --------------------------------------------------------

KERNEL_TOLERANCE = 1e-12
REFERENCE_CASES = {
    "lstm": (ModelShape(cell="lstm", layers=3, hidden=6), 5, 4),
    "lstm_no_sentiment": (ModelShape(cell="lstm", layers=2, hidden=7, d_s=None), 5, 4),
    "rnn": (ModelShape(cell="rnn", layers=3, hidden=6), 5, 4),
    "rnn_no_sentiment": (ModelShape(cell="rnn", layers=2, hidden=7, d_s=None), 5, 4),
    "one_step": (ModelShape(cell="lstm", layers=2, hidden=6), 1, 4),
    "one_window": (ModelShape(cell="lstm", layers=2, hidden=6), 5, 1),
    "hidden_below_fused": (ModelShape(cell="lstm", layers=2, hidden=5, d_i=2), 4, 3),
}


def _reference_case(name: str):
    shape, steps, n = REFERENCE_CASES[name]
    rng = np.random.default_rng(len(name))
    params = init_parameters(shape, seed=len(name))
    streams = (
        rng.normal(size=(n, steps, shape.d_a)),
        rng.normal(size=(n, steps, shape.d_f)),
        rng.uniform(size=(n, steps, shape.d_s)) if shape.d_s else None,
    )
    return params, streams, rng.normal(size=n)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_matches_reference(case):
    params, streams, d_pred = _reference_case(case)
    assert params.hidden_size != params.fusion.fused_dim
    want_pred, want_caches = reference_forward(streams, params)
    want_grads = reference_backward(streams, params, want_caches, d_pred)

    cache = forward_batch(streams, params)
    np.testing.assert_allclose(cache.predictions, want_pred, rtol=0, atol=KERNEL_TOLERANCE)
    for lc, want in zip(cache.layers, want_caches):
        for key, array in want.items():
            got = getattr(lc, key).transpose(0, 2, 1)
            np.testing.assert_allclose(got, array, rtol=0, atol=KERNEL_TOLERANCE, err_msg=key)
    grads = backward_batch(cache, d_pred)
    assert list(grads) == [name for name, _ in params.param_items()]
    for name, g in grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=KERNEL_TOLERANCE, err_msg=name)


@pytest.mark.parametrize("case", ["lstm", "one_window"])
def test_gate_traces_match_reference(case):
    params, streams, _ = _reference_case(case)
    _, want_caches = reference_forward(streams, params)
    cache = forward_batch(streams, params)
    for w in range(cache.n_windows):
        traces = gate_traces(cache, w)
        assert len(traces) == len(want_caches)
        for trace, want in zip(traces, want_caches):
            for field_name, key in (("forget", "f"), ("input", "i"), ("output", "o"), ("candidate", "g")):
                np.testing.assert_allclose(
                    getattr(trace, field_name), want[key][:, w], rtol=0, atol=KERNEL_TOLERANCE
                )


def test_saturated_gates_raise_no_overflow_warning():
    # Gate pre-activations near -1000 overflow exp(-z) in 1 / (1 + exp(-z));
    # the limits 0 and 1 are exact and no warning may surface.
    params = init_parameters(ModelShape(layers=2, hidden=4), seed=6)
    for layer in params.layers:
        layer.b_f[...] = -1000.0
        layer.b_i[...] = 1000.0
        layer.b_o[...] = -1000.0
    rng = np.random.default_rng(6)
    streams = (rng.normal(size=(3, 5, 3)), rng.normal(size=(3, 5, 3)), rng.uniform(size=(3, 5, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = forward_batch(streams, params)
    for lc in cache.layers:
        assert np.all(lc.f == 0.0) and np.all(lc.i == 1.0) and np.all(lc.o == 0.0)
    assert np.all(np.isfinite(cache.predictions))


# --- initialization ----------------------------------------------------------


def test_init_is_deterministic_per_seed():
    shape = ModelShape(layers=3, hidden=8)
    first = init_parameters(shape, seed=42)
    second = init_parameters(shape, seed=42)
    for (name_a, a), (_, b) in zip(first.param_items(), second.param_items()):
        assert np.array_equal(a, b), name_a


def test_init_forget_bias_is_one():
    params = init_parameters(ModelShape(layers=3, hidden=8), seed=0)
    for layer in params.layers:
        assert np.all(layer.b_f == 1.0)
        assert not np.any(layer.b_i) and not np.any(layer.b_o) and not np.any(layer.b_c)
    toggled = init_parameters(ModelShape(layers=1, hidden=4), seed=0, forget_bias=0.0)
    assert not np.any(toggled.layers[0].b_f)


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
    assert "layers.0.U" in names and "layers.0.W" in names
    assert not any(name.startswith("layers.0.b") for name in names)


# --- traces ------------------------------------------------------------------


def test_mean_forget_zero_weight_net_with_unit_bias():
    params = zeroed(init_parameters(ModelShape(layers=2, hidden=4), seed=0))
    for layer in params.layers:
        layer.b_f[...] = 1.0
    window = (np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 1)))
    _, traces, _ = forward_sequence(window, params)
    assert mean_forget_activation(traces) == scalar_sigmoid(1.0)


def test_mean_forget_simple_average():
    trace = GateTrace(
        forget=np.array([[0.2], [0.8]]),
        input=np.zeros((2, 1)),
        output=np.zeros((2, 1)),
        candidate=np.zeros((2, 1)),
    )
    assert mean_forget_activation([trace]) == 0.5


def test_mean_forget_empty_is_error():
    with pytest.raises(ValueError, match="no gate traces"):
        mean_forget_activation([])


def test_all_gate_traces_cover_layers_and_windows():
    params = init_parameters(ModelShape(layers=3, hidden=2), seed=0)
    streams = (np.zeros((4, 5, 3)), np.zeros((4, 5, 3)), np.zeros((4, 5, 1)))
    cache = forward_batch(streams, params)
    traces = all_gate_traces(cache)
    assert len(traces) == 4 * 3
    assert all(t.forget.shape == (5, 2) for t in traces)


def test_rnn_has_no_gate_traces():
    params = init_parameters(ModelShape(cell="rnn", layers=2, hidden=3), seed=0)
    prediction, traces, cache = forward_sequence(
        (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 1))), params
    )
    assert traces == []
    assert isinstance(prediction, float)
    assert gate_traces(cache, 0) == []
