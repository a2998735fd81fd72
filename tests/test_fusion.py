"""Stream fusion as `forward_batch` applies it: each stream's affine
projection, concatenated fundamental, technical, sentiment into the first
layer's cached input."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.network import ModelShape, NetworkParameters, forward_batch


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
    return forward_batch(streams, params).layers[0].x[0, :, 0]


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
