from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.errors import CheckpointError, ConfigError, DataError, DivergenceError
from trendlab.features import build_feature_frame, prepare_dataset
from trendlab.market_data import NormalizationScale, WindowedDataset, make_windows
from trendlab.network import ModelShape, backward_batch, forward_batch, init_parameters
from trendlab import training
from trendlab.synthetic import sine_series
from trendlab.training import (
    Adam,
    GradientCheckResult,
    TrainConfig,
    adam_step,
    evaluate,
    gradient_check,
    load_checkpoint,
    rmse,
    rmse_gradient,
    save_checkpoint,
    train,
)

from oracles import unrolled_adam

SMALL_SHAPE = ModelShape(cell="lstm", d_a=3, d_f=3, d_s=1, d_i=2, layers=3, hidden=8)


@pytest.fixture(scope="module")
def sine_bundle():
    frame = build_feature_frame(sine_series())
    return prepare_dataset(frame, window=12)


# --- rmse ---------------------------------------------------------------------


def test_rmse_identity():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_rmse_constant_offset():
    assert rmse([1.0, 2.0, 3.0], [3.5, 4.5, 5.5]) == pytest.approx(2.5, abs=1e-15)


def test_rmse_direct_arithmetic():
    assert rmse([1.0, 2.0], [3.0, 6.0]) == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_rmse_errors():
    with pytest.raises(DataError):
        rmse([], [])
    with pytest.raises(DataError):
        rmse([1.0], [1.0, 2.0])


@settings(max_examples=100)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
    seed=st.integers(0, 2**31),
)
def test_rmse_metric_properties(a, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1e3, 1e3, size=len(a)).tolist()
    c = rng.uniform(-1e3, 1e3, size=len(a)).tolist()
    assert rmse(a, b) >= 0.0
    assert rmse(a, b) == rmse(b, a)
    assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-9


def test_rmse_gradient_zero_at_converged():
    grad = rmse_gradient(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert not np.any(grad)


def test_rmse_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    p = rng.normal(size=6)
    t = rng.normal(size=6)
    grad = rmse_gradient(p, t)
    step = 1e-7
    for k in range(6):
        up, down = p.copy(), p.copy()
        up[k] += step
        down[k] -= step
        numeric = (rmse(up, t) - rmse(down, t)) / (2 * step)
        assert abs(grad[k] - numeric) < 1e-7


# --- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    params = {"w": np.array([1.0, -2.0])}
    m = {"w": np.zeros(2)}
    v = {"w": np.zeros(2)}
    for t in range(1, 5):
        adam_step(params, {"w": np.zeros(2)}, m, v, t, learning_rate=0.01)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_is_signed_learning_rate():
    for g in (3.7, -0.004):
        params = {"w": np.array([0.0])}
        adam_step(params, {"w": np.array([g])}, {"w": np.zeros(1)}, {"w": np.zeros(1)}, 1,
                  learning_rate=0.01)
        assert params["w"][0] == pytest.approx(-0.01 * np.sign(g), rel=1e-5)


def test_adam_three_step_recurrence_oracle():
    expected = unrolled_adam([1.0, 1.0, 1.0], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    # frozen from the oracle
    assert expected == [-0.009999999900000002, -0.019999999799999932, -0.02999999969999993]
    params = {"w": np.array([0.0])}
    m = {"w": np.zeros(1)}
    v = {"w": np.zeros(1)}
    for t in range(1, 4):
        adam_step(params, {"w": np.array([1.0])}, m, v, t, learning_rate=0.01)
        assert abs(params["w"][0] - expected[t - 1]) < 1e-12


def test_adam_validation():
    params = {"w": np.zeros(2)}
    state = {"w": np.zeros(2)}
    with pytest.raises(ConfigError):
        adam_step(params, {"w": np.zeros(2)}, state, state, 0, learning_rate=0.01)
    with pytest.raises(DataError, match="shape"):
        adam_step(params, {"w": np.zeros(3)}, state, state, 1, learning_rate=0.01)
    with pytest.raises(DivergenceError):
        adam_step(params, {"w": np.array([np.nan, 0.0])}, state, state, 1, learning_rate=0.01)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(cell="gru")


# --- training loop ------------------------------------------------------------


def test_zero_epoch_run_keeps_initialization(sine_bundle):
    config = TrainConfig(epochs=0, seed=5)
    run = train(sine_bundle.dataset, config)
    assert run.epoch_rmse == ()
    fresh = init_parameters(
        ModelShape(d_a=3, d_f=3, d_s=1, layers=config.layers, hidden=config.hidden_size),
        seed=5,
    )
    for (name, got), (_, want) in zip(run.parameters.param_items(), fresh.param_items()):
        assert np.array_equal(got, want), name
    assert run.test_rmse is not None


def test_training_is_deterministic(sine_bundle):
    config = TrainConfig(epochs=15, seed=3)
    first = train(sine_bundle.dataset, config)
    second = train(sine_bundle.dataset, config)
    assert first.epoch_rmse == second.epoch_rmse
    assert first.train_rmse == second.train_rmse
    assert first.test_rmse == second.test_rmse
    for (name, a), (_, b) in zip(first.parameters.param_items(), second.parameters.param_items()):
        assert np.array_equal(a, b), name


def test_full_batch_gradient_is_order_invariant(sine_bundle):
    dataset = sine_bundle.dataset.train
    params = init_parameters(
        ModelShape(d_a=3, d_f=3, d_s=1, layers=2, hidden=8), seed=0
    )
    labels = dataset.labels
    cache = forward_batch(dataset.streams, params)
    grads = backward_batch(cache, rmse_gradient(cache.predictions, labels))

    order = np.random.default_rng(1).permutation(dataset.n_windows)
    shuffled = (
        dataset.fundamental[order],
        dataset.technical[order],
        dataset.sentiment[order],
    )
    cache_p = forward_batch(shuffled, params)
    grads_p = backward_batch(cache_p, rmse_gradient(cache_p.predictions, labels[order]))
    for name, g in grads.items():
        np.testing.assert_allclose(grads_p[name], g, rtol=1e-9, atol=1e-12, err_msg=name)


def test_monotone_memorization(sine_bundle):
    run = train(sine_bundle.dataset, TrainConfig(epochs=300, seed=0, hidden_size=16))
    assert run.train_rmse < run.epoch_rmse[0]
    assert run.train_rmse < 0.1


def test_window_mismatch_rejected(sine_bundle):
    with pytest.raises(ConfigError, match="window"):
        train(sine_bundle.dataset, TrainConfig(epochs=1, window=5))


def test_divergence_reports_epoch():
    fundamental = np.column_stack([np.full(6, np.nan), np.zeros(6)])
    ds = make_windows(fundamental, np.zeros((6, 1)), np.full((6, 1), 0.5), np.zeros(6), window=2)
    with pytest.raises(DivergenceError) as err:
        train(ds, TrainConfig(epochs=3, window=2, layers=1, hidden_size=2))
    assert err.value.epoch == 0


def test_divergence_in_optimizer_step_reports_epoch(sine_bundle, monkeypatch):
    # Finite predictions, but a non-finite gradient at epoch 2: Adam rejects
    # it, and the error must still carry the epoch.
    calls = []

    def poisoned(cache, d_predictions):
        grads = backward_batch(cache, d_predictions)
        calls.append(None)
        if len(calls) == 3:
            grads["head.b"] = np.asarray(np.nan)
        return grads

    monkeypatch.setattr(training, "backward_batch", poisoned)
    with pytest.raises(DivergenceError, match="head.b") as err:
        train(sine_bundle.dataset, TrainConfig(epochs=5, layers=1, hidden_size=2))
    assert err.value.epoch == 2


# --- gradient check -----------------------------------------------------------


def test_gradient_check_passes_small_lstm():
    result = gradient_check(SMALL_SHAPE, seed=0, tolerance=1e-5)
    assert result.passed, (result.worst_block, result.max_error)
    assert set(result.block_errors) == {name for name, _ in init_parameters(SMALL_SHAPE, 0).param_items()}


def test_gradient_check_passes_rnn():
    shape = ModelShape(cell="rnn", d_a=3, d_f=3, d_s=1, d_i=2, layers=2, hidden=6)
    assert gradient_check(shape, seed=1).passed


def test_gradient_check_localizes_corruption():
    result = gradient_check(SMALL_SHAPE, seed=0, corrupt_block="layers.0.W_f")
    assert not result.passed
    assert result.failing_blocks == ["layers.0.W_f"]


def test_gradient_check_unknown_block():
    with pytest.raises(ConfigError, match="unknown parameter block"):
        gradient_check(SMALL_SHAPE, seed=0, corrupt_block="nope")


# --- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_bitwise():
    params = init_parameters(SMALL_SHAPE, seed=123)
    config = TrainConfig(epochs=7, seed=123, layers=3, hidden_size=8, d_i=2)
    scale = NormalizationScale(1728.339966, 1902.880005)
    column_scales = {"Adj. Price": scale, "TDD": None}
    text = save_checkpoint(params, config, scale, column_scales=column_scales,
                           columns={"fundamental": ["Adj. Price"], "technical": [], "sentiment": None})
    loaded = load_checkpoint(text)
    assert loaded.config == config
    assert loaded.scale == scale
    assert loaded.column_scales["TDD"] is None
    for (name, a), (_, b) in zip(params.param_items(), loaded.params.param_items()):
        assert np.array_equal(a, b), name
    assert save_checkpoint(loaded.params, loaded.config, loaded.scale,
                           column_scales=loaded.column_scales, columns=loaded.columns) == text


def _tiny_checkpoint() -> str:
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    return save_checkpoint(params, TrainConfig(layers=1, hidden_size=2), NormalizationScale(0.0, 1.0))


def test_checkpoint_version_mismatch():
    bumped = _tiny_checkpoint().replace('"schema_version": 2', '"schema_version": 3', 1)
    with pytest.raises(CheckpointError, match="schema_version"):
        load_checkpoint(bumped)


def test_checkpoint_version_1_is_rejected():
    doc = json.loads(_tiny_checkpoint())
    del doc["shape"], doc["params"]
    doc.update(schema_version=1, model={"cell": "lstm", "fusion": {}, "layers": [], "head": {}})
    with pytest.raises(CheckpointError, match="schema_version 1.*retrain"):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_truncated():
    text = _tiny_checkpoint()
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(text[: len(text) // 2])


def _small_checkpoint_doc() -> dict:
    params = init_parameters(SMALL_SHAPE, seed=4)
    config = TrainConfig(layers=3, hidden_size=8, d_i=2)
    return json.loads(save_checkpoint(params, config, NormalizationScale(0.0, 1.0)))


@pytest.mark.parametrize(
    "field, value", [("cell", "rnn"), ("layers", 2), ("hidden_size", 9), ("d_i", None)]
)
def test_checkpoint_rejects_config_that_disagrees_with_the_model(field, value):
    doc = _small_checkpoint_doc()
    load_checkpoint(json.dumps(doc))
    doc["config"][field] = value
    with pytest.raises(CheckpointError, match="disagrees with its config"):
        load_checkpoint(json.dumps(doc))


def _rnn_shape_over_memory_cells(doc):
    doc["shape"]["cell"] = doc["config"]["cell"] = "rnn"


def _missing_block(doc):
    del doc["params"]["layers.2.b_c"]


def _extra_block(doc):
    doc["params"]["layers.3.W_f"] = doc["params"]["layers.2.W_f"]


def _one_row_block(doc):  # (8,) would broadcast into the (8, 8) block
    doc["params"]["layers.1.U_o"] = doc["params"]["layers.1.U_o"][0]


def _text_block(doc):
    doc["params"]["head.b"] = "zero"


def _fractional_hidden(doc):
    doc["shape"]["hidden"] = 8.0


@pytest.mark.parametrize(
    "edit",
    [_rnn_shape_over_memory_cells, _missing_block, _extra_block, _one_row_block, _text_block, _fractional_hidden],
)
def test_checkpoint_rejects_a_malformed_model(edit):
    doc = _small_checkpoint_doc()
    edit(doc)
    with pytest.raises(CheckpointError):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_reproduces_test_rmse(sine_bundle):
    config = TrainConfig(epochs=40, seed=9, hidden_size=8)
    run = train(sine_bundle.dataset, config)
    text = save_checkpoint(run.parameters, config, sine_bundle.price_scale,
                           column_scales=sine_bundle.column_scales, columns=sine_bundle.columns)
    loaded = load_checkpoint(text)
    _, test_rmse = evaluate(sine_bundle.dataset.test, loaded.params)
    assert test_rmse == run.test_rmse
