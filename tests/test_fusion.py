"""Stream fusion as `forward_batch` applies it: each stream's affine
projection, concatenated fundamental, technical, sentiment into the first
layer's cached input."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.fusion import FusionParameters, default_width
from trendlab.network import (
    HeadParameters,
    NetworkParameters,
    RnnLayerParameters,
    forward_batch,
)


def fused(fusion: FusionParameters, a, f, s=None) -> np.ndarray:
    """The fused input vector `forward_batch` feeds the first layer for a
    one-step window with stream vectors a, f and s."""
    width = fusion.fused_dim
    params = NetworkParameters(
        "rnn", fusion, [RnnLayerParameters(np.zeros((1, width)), np.zeros((1, 1)))],
        HeadParameters(np.zeros(1), np.zeros(())),
    )
    streams = tuple(None if v is None else np.asarray(v, dtype=np.float64)[None, None] for v in (a, f, s))
    return forward_batch(streams, params).layers[0].x[0, :, 0]


def test_project_identity():
    v = np.array([1.0, -2.0, 3.0])
    out = fused(FusionParameters(np.eye(3), np.zeros(3), np.zeros((3, 1)), np.zeros(3)), v, [5.0])
    np.testing.assert_array_equal(out[:3], v)


def test_project_constant_map():
    b = np.array([4.0, 5.0])
    out = fused(FusionParameters(np.zeros((2, 3)), b, np.zeros((2, 1)), np.zeros(2)), [9.0, 9.0, 9.0], [1.0])
    np.testing.assert_array_equal(out[:2], b)


def test_project_matches_brute_force():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    v = rng.normal(size=3)
    expected = np.array([sum(W[i, j] * v[j] for j in range(3)) + b[i] for i in range(4)])
    out = fused(FusionParameters(np.zeros((4, 2)), np.zeros(4), W, b), [0.0, 0.0], v)
    np.testing.assert_allclose(out[4:], expected, atol=1e-12)


def test_project_shape_errors():
    fusion = FusionParameters(np.zeros((4, 3)), np.zeros(4), np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(ValueError, match="fundamental stream dim"):
        fused(fusion, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="b_F shape"):
        FusionParameters(np.zeros((4, 3)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))


def test_fuse_width():
    fusion = FusionParameters(np.ones((4, 2)), np.zeros(4), np.ones((4, 2)), np.zeros(4), np.ones((4, 1)), np.zeros(4))
    assert fused(fusion, np.zeros(2), np.ones(2), [2.0]).shape == (12,)


def _identity_fusion(with_sentiment: bool = True) -> FusionParameters:
    sentiment = (np.eye(2), np.zeros(2)) if with_sentiment else (None, None)
    return FusionParameters(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), *sentiment)


def test_fuse_concatenation_order():
    out = fused(_identity_fusion(), [1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_fuse_without_sentiment():
    out = fused(_identity_fusion(with_sentiment=False), [1.0, 2.0], [3.0, 4.0])
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_fuse_dimension_mismatch():
    with pytest.raises(ValueError, match="W_F output dim 3 != d_I 2"):
        FusionParameters(np.zeros((2, 3)), np.zeros(2), np.zeros((3, 3)), np.zeros(3))


def test_fuse_components_recoverable():
    rng = np.random.default_rng(1)
    W_A, W_F, W_S = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2, 1))
    b_A, b_F, b_S = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
    a, f, s = rng.normal(size=3), rng.normal(size=3), rng.uniform(size=1)
    out = fused(FusionParameters(W_A, b_A, W_F, b_F, W_S, b_S), a, f, s)
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
    fusion = FusionParameters(rng.normal(size=(3, 4)), np.zeros(3), np.zeros((3, 1)), np.zeros(3))
    v1 = rng.normal(size=4)
    v2 = rng.normal(size=4)
    lhs = fused(fusion, alpha * v1 + beta * v2, [0.0])
    rhs = alpha * fused(fusion, v1, [0.0]) + beta * fused(fusion, v2, [0.0])
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_default_width_never_compresses():
    assert default_width(3, 3, 1) == 3
    assert default_width(2, 5, None) == 5


def test_fuse_streams_round_trip():
    fusion = FusionParameters(
        np.eye(2), np.zeros(2), 2.0 * np.eye(2), np.zeros(2), np.array([[1.0], [0.0]]), np.array([0.5, 0.5])
    )
    out = fused(fusion, [1.0, 2.0], [3.0, 4.0], [1.0])
    assert out.tolist() == [1.0, 2.0, 6.0, 8.0, 1.5, 0.5]


def test_fusion_parameters_shape_checks():
    with pytest.raises(ValueError):
        FusionParameters(W_A=np.zeros((2, 3)), b_A=np.zeros(3), W_F=np.zeros((2, 3)), b_F=np.zeros(2))
    with pytest.raises(ValueError, match="together"):
        FusionParameters(
            W_A=np.zeros((2, 3)), b_A=np.zeros(2),
            W_F=np.zeros((2, 3)), b_F=np.zeros(2),
            W_S=np.zeros((2, 1)), b_S=None,
        )
