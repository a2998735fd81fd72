from __future__ import annotations

import base64
import contextlib
import json
import math
import multiprocessing
import os
import tracemalloc
import weakref
from dataclasses import replace
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab.errors import CheckpointError, ConfigError, DataError, DivergenceError
from trendlab.features import WindowedDataset, build_feature_frame, make_windows, prepare_dataset
from trendlab.market_data import NormalizationScale
from trendlab.network import ModelShape, NetworkParameters, backward_batch, forward_batch, init_parameters
from trendlab import forked, training
from trendlab.synthetic import paper_shaped_series, planted_sentiment, sine_series
from trendlab.training import (
    TrainConfig,
    TrainingRun,
    adam_step,
    evaluate,
    load_checkpoint,
    model_shape,
    rmse,
    save_checkpoint,
    shard_bounds,
    train,
    tree_sum,
)

from oracles import gradient_check, halving_sum, pairwise_sum, reference_adam_step, rmse_gradient, unrolled_adam

SMALL_SHAPE = ModelShape(cell="lstm", d_a=3, d_f=3, d_s=1, d_i=2, layers=3, hidden=8)


@pytest.fixture(scope="module")
def sine_bundle():
    frame = build_feature_frame(sine_series())
    return prepare_dataset(frame, window=12)


@pytest.fixture(scope="module")
def paper_dataset():
    """The weekly paper-shaped series with planted sentiment: 831 training
    windows of 12 steps, eight shards of 104 and 103."""
    series = paper_shaped_series(seed=0)
    return prepare_dataset(build_feature_frame(series, sentiment_by_date=planted_sentiment(series)), 12).dataset


def _on_cpus(monkeypatch, cpus: int) -> None:
    """Train as if `cpus` CPUs were usable: `cpus - 1` helpers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    return forks


def _in_helpers(monkeypatch, name: str, act) -> None:
    """`training.<name>` calls `act(call number, *args)` first in a forked
    helper, counting that helper's calls, and goes straight through in the
    caller."""
    parent, real, calls = os.getpid(), getattr(training, name), []

    def wrapped(*args):
        if os.getpid() != parent:
            calls.append(None)
            args = act(len(calls), *args)
        return real(*args)

    monkeypatch.setattr(training, name, wrapped)


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


ADAM = TrainConfig(learning_rate=0.01)
ADAM_SHAPE = ModelShape(d_a=1, d_f=1, d_s=None, d_i=1, layers=1, hidden=1)  # 22 parameters


def _adam_state(params):
    return np.zeros_like(params.vector), np.zeros_like(params.vector)


def test_adam_zero_gradient_is_identity():
    params = init_parameters(ADAM_SHAPE, seed=0)
    before = params.vector.copy()
    m, v = _adam_state(params)
    for t in range(1, 5):
        adam_step(params, NetworkParameters(ADAM_SHAPE), m, v, t, ADAM)
    np.testing.assert_array_equal(params.vector, before)


def test_adam_first_step_is_signed_learning_rate():
    params, grads = NetworkParameters(ADAM_SHAPE), NetworkParameters(ADAM_SHAPE)
    grads.vector[...] = np.resize([3.7, -0.004, 250.0, -0.5], grads.vector.size)
    adam_step(params, grads, *_adam_state(params), 1, ADAM)
    np.testing.assert_allclose(params.vector, -0.01 * np.sign(grads.vector), rtol=1e-5)


def test_adam_three_step_recurrence_oracle():
    expected = unrolled_adam([1.0, 1.0, 1.0], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    # frozen from the oracle
    assert expected == [-0.009999999900000002, -0.019999999799999932, -0.02999999969999993]
    params, grads = NetworkParameters(ADAM_SHAPE), NetworkParameters(ADAM_SHAPE)
    grads.vector[...] = 1.0
    m, v = _adam_state(params)
    for t in range(1, 4):
        adam_step(params, grads, m, v, t, ADAM)
        assert np.all(np.abs(params.vector - expected[t - 1]) < 1e-12)


def test_adam_validation():
    params = init_parameters(ADAM_SHAPE, seed=0)
    with pytest.raises(ConfigError):
        adam_step(params, NetworkParameters(ADAM_SHAPE), *_adam_state(params), 0, ADAM)
    wider = NetworkParameters(replace(ADAM_SHAPE, hidden=2))
    with pytest.raises(DataError, match="size"):
        adam_step(params, wider, *_adam_state(params), 1, ADAM)
    for block in ("layers.0.U_o", "head.b"):
        grads = NetworkParameters(ADAM_SHAPE)
        dict(grads.param_items())[block].flat[0] = np.nan
        with pytest.raises(DivergenceError, match=f"non-finite gradient in block {block}$"):
            adam_step(params, grads, *_adam_state(params), 1, ADAM)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_train_matches_per_block_adam_oracle(sine_bundle, cell):
    """50 epochs of `train` against the library's forward and backward
    passes driving the per-block Adam oracle: bit-identical parameters and
    epoch losses. The 20 training windows are one shard, whose gradient is
    the backward pass of the residual, scaled once by 1 / (n * RMSE)."""
    dataset = sine_bundle.dataset
    config = TrainConfig(epochs=50, cell=cell, layers=2, hidden_size=5, seed=2)
    run = train(dataset, config)

    params = init_parameters(model_shape((3, 3, 1), config), config.seed, config.forget_bias)
    weights = dict(params.param_items())
    m = {name: np.zeros_like(a) for name, a in weights.items()}
    v = {name: np.zeros_like(a) for name, a in weights.items()}
    streams, labels = dataset.train.streams, dataset.train.labels
    assert shard_bounds(labels.size) == [range(labels.size)]
    epoch_rmse = []
    for t in range(1, config.epochs + 1):
        cache = forward_batch(streams, params)
        epoch_rmse.append(rmse(cache.predictions, labels))
        grads = backward_batch(cache, cache.predictions - labels)
        grads.vector *= 1.0 / (labels.size * epoch_rmse[-1])
        grads = dict(grads.param_items())
        reference_adam_step(weights, grads, m, v, t, learning_rate=config.learning_rate,
                            beta1=config.beta1, beta2=config.beta2, epsilon=config.epsilon)
    assert run.epoch_rmse == tuple(epoch_rmse)
    for (name, got), (_, want) in zip(run.parameters.param_items(), params.param_items()):
        assert np.array_equal(got, want), name


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(cell="gru")


def test_train_config_field_types():
    assert type(TrainConfig(learning_rate=1).learning_rate) is float
    assert TrainConfig(d_i=None).d_i is None and TrainConfig(d_i=3).d_i == 3
    for field, value, kind in [
        ("epochs", True, "an integer"), ("learning_rate", False, "a number"),
        ("learning_rate", "0.1", "a number"), ("cell", 1, "a string"), ("d_i", 1.5, "an integer or null"),
    ]:
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got "):
            TrainConfig(**{field: value})


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


def _traced_peak(dataset, config, **options) -> tuple[int, TrainingRun]:
    tracemalloc.start()
    try:
        run = train(dataset, config, **options)
        return tracemalloc.get_traced_memory()[1], run
    finally:
        tracemalloc.stop()


def test_a_training_run_holds_one_forward_cache(monkeypatch, paper_dataset):
    """numpy reports its arrays to tracemalloc. On the weekly paper-shaped
    series (831 training windows of 12 steps, 3 x 32 LSTM) the activation
    buffers dominate a run's memory. On one CPU the caller runs all eight
    shards, each backward pass right after its forward, through one block
    sized for a 104-window shard, and tree-sums their gradients, so the
    peak stays below 0.21 of one full-batch cache. Over fixture seeds 0-7
    it read 0.181, and 0.193 for a first run in a fresh process; 0.318
    with four shards of 208. Two shards of 416 with a cache each, kept from
    an epoch's forward passes to its backward passes, read 1.11, and a
    full-batch cache allocated per epoch while the last was alive about
    2.1. In bytes, the peak stays below 8 MB (7.09 MB over seeds 0-7, 7.56
    MB for a first run; 12.5 MB with shards of 208, 43.5 MB with the two
    caches of 416 windows)."""
    _on_cpus(monkeypatch, 1)
    peak, run = _traced_peak(paper_dataset, TrainConfig(epochs=3))
    cache = forward_batch(paper_dataset.train.streams, run.parameters)
    assert cache.n_windows == 831
    assert peak < 0.21 * sum(a.nbytes for a in cache.buffers())
    assert peak < 8.0e6


def test_on_two_cpus_the_caller_holds_the_cache_of_its_own_shard_only(monkeypatch, paper_dataset):
    """With a helper running the last four shards, the caller's traced peak
    stays below 0.19 of one full-batch cache (0.176 over fixture seeds 0-7:
    an eighth of a cache, and the backward pass's buffers for an eighth of
    the windows; 0.314 with shards of 208, and 0.594 when the caller held a
    cache for each of its shards). A run before it imports what the first
    fork imports, which the peak is not about."""
    _on_cpus(monkeypatch, 2)
    train(paper_dataset, TrainConfig(epochs=1, layers=1, hidden_size=2))
    peak, run = _traced_peak(paper_dataset, TrainConfig(epochs=3))
    cache = forward_batch(paper_dataset.train.streams, run.parameters)
    assert peak < 0.19 * sum(a.nbytes for a in cache.buffers())


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
    grads = dict(backward_batch(cache, rmse_gradient(cache.predictions, labels)).param_items())

    order = np.random.default_rng(1).permutation(dataset.n_windows)
    shuffled = tuple(stream[order] for stream in dataset.streams)
    cache_p = forward_batch(shuffled, params)
    grads_p = dict(backward_batch(cache_p, rmse_gradient(cache_p.predictions, labels[order])).param_items())
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
    ds = make_windows((fundamental, np.zeros((6, 1)), np.full((6, 1), 0.5)), np.zeros(6), window=2)
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
            grads.head.b[...] = np.nan
        return grads

    monkeypatch.setattr(training, "backward_batch", poisoned)
    with pytest.raises(DivergenceError, match="head.b") as err:
        train(sine_bundle.dataset, TrainConfig(epochs=5, layers=1, hidden_size=2))
    assert err.value.epoch == 2


# --- shards across processes --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 191, 192, 193, 384, 385, 500, 768, 769, 831, 1024, 1025, 4277, 5000])
def test_shards_are_a_power_of_two_contiguous_near_equal_and_of_96_to_192_windows(n):
    """The shards cover 0..n-1 in order, the longer first, at most
    SHARD_WINDOWS = 192 windows each, and their count is the least power of
    two that allows it, so that any power-of-two number of processes up to
    it splits them into subtrees. Hence every shard of a split into
    several holds at least half of 192: 193 windows are 97 and 96."""
    shards = shard_bounds(n)
    count = len(shards)
    assert count & (count - 1) == 0 and (count == 1 or -(-n // (count // 2)) > 192)
    assert [k for shard in shards for k in shard] == list(range(n))
    sizes = [len(shard) for shard in shards]
    assert min(sizes) >= (1 if count == 1 else 96) and max(sizes) <= 192
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_tree_sum_streams_a_recursive_halving_and_holds_at_most_log2_n_plus_one_sums(n):
    """`tree_sum` of n vectors is bit-equal to recursive halving, lands in
    the first vector, and while it runs at most log2(n) + 1 of the vectors
    it was given are alive: the partial sums it holds, and the one just
    drawn. A list of the vectors, summed after, would hold n."""
    rng = np.random.default_rng(n)
    values = [rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, size=5) for _ in range(n)]
    drawn_refs, most, first = [], [], []

    def drawn():
        for value in values:
            vector = value.copy()
            drawn_refs.append(weakref.ref(vector))
            most.append(sum(ref() is not None for ref in drawn_refs))
            first[:] = first or [vector]
            yield vector
            del vector

    total = tree_sum(drawn())
    assert total.tobytes() == halving_sum(values).tobytes() and total is first[0]
    assert max(most) <= n.bit_length()
    assert tree_sum(iter(())) is None


def test_tree_sum_of_any_count_adds_the_remaining_subtrees_right_to_left():
    """Counts that are not a power of two, which training does not make,
    leave subtrees of falling size that add from the right."""
    a, b, c = (np.array([x]) for x in (1e16, 1.0, 1.0))
    assert tree_sum([a.copy(), b.copy(), c.copy()])[0] == (1e16 + 1.0) + 1.0
    assert tree_sum([c.copy(), b.copy(), a.copy()])[0] == (1.0 + 1.0) + 1e16


def _trains_the_same_bytes_on_one_cpu_and_on_two(monkeypatch, dataset) -> None:
    """On one CPU the caller runs every shard and forks nothing; on two a
    helper runs the second half. Everything the run returns is bit-equal."""
    forks = _count_forks(monkeypatch)
    runs, forked = {}, {}
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        forks.clear()
        runs[cpus] = train(dataset, TrainConfig(epochs=2))
        forked[cpus] = len(forks)
    assert forked == {1: 0, 2: 1}
    one, two = runs[1], runs[2]
    assert one.parameters.vector.tobytes() == two.parameters.vector.tobytes()
    assert (one.epoch_rmse, one.train_rmse, one.test_rmse) == (two.epoch_rmse, two.train_rmse, two.test_rmse)


def test_the_paper_fixture_trains_the_same_bytes_on_one_cpu_and_on_two(monkeypatch, paper_dataset):
    """831 windows are eight shards, seven of 104 and one of 103; a helper
    runs the last four on two CPUs."""
    assert [len(shard) for shard in shard_bounds(paper_dataset.train.n_windows)] == [104] * 7 + [103]
    _trains_the_same_bytes_on_one_cpu_and_on_two(monkeypatch, paper_dataset)


def test_500_windows_train_as_four_shards_with_the_same_bytes_on_one_cpu_and_on_two(monkeypatch, paper_dataset):
    """500 windows need three shards of at most 192, and train as four of
    125, so that each of two processes runs two."""
    dataset = replace(paper_dataset, split_index=500)
    assert shard_bounds(dataset.train.n_windows) == [range(0, 125), range(125, 250), range(250, 375), range(375, 500)]
    _trains_the_same_bytes_on_one_cpu_and_on_two(monkeypatch, dataset)


def test_16_shards_train_the_same_bytes_on_one_to_four_cpus_with_a_power_of_two_of_processes(monkeypatch):
    """2,000 windows are 16 shards of 125. On 1, 2, 3 and 4 CPUs training
    runs on 1, 2, 2 and 4 processes, each a subtree of the shards' tree,
    and every run returns the same bytes: three CPUs give one helper, not
    two, as three processes could not split 16 shards into subtrees."""
    dataset = _random_dataset(2000)
    assert [len(shard) for shard in shard_bounds(dataset.train.n_windows)] == [125] * 16
    forks = _count_forks(monkeypatch)
    runs, forked = {}, {}
    for cpus in (1, 2, 3, 4):
        _on_cpus(monkeypatch, cpus)
        forks.clear()
        runs[cpus] = train(dataset, TrainConfig(epochs=2, layers=1, hidden_size=4))
        forked[cpus] = len(forks)
    assert forked == {1: 0, 2: 1, 3: 1, 4: 3}
    for run in runs.values():
        assert run.parameters.vector.tobytes() == runs[1].parameters.vector.tobytes()
        assert (run.epoch_rmse, run.train_rmse, run.test_rmse) == (runs[1].epoch_rmse, runs[1].train_rmse,
                                                                     runs[1].test_rmse)


def test_up_to_192_windows_nothing_forks(monkeypatch, paper_dataset):
    forks = _count_forks(monkeypatch)
    _on_cpus(monkeypatch, 2)
    for n, forked in ((192, 0), (193, 1)):
        forks.clear()
        train(replace(paper_dataset, split_index=n), TrainConfig(epochs=2, layers=1, hidden_size=2))
        assert len(forks) == forked, n


def test_each_helper_gets_one_message_and_sends_one_per_epoch(monkeypatch, paper_dataset):
    """An epoch is one exchange with each helper: the parameter vector out,
    its shards' predictions and unscaled gradients back. The final
    train-split RMSE is one more, 3 epochs 4 messages each way."""
    parent, real_send = os.getpid(), Connection.send
    sent = {"caller": forked.shared_counter(), "helper": forked.shared_counter()}

    def counted(conn, message):
        counter = sent["caller" if os.getpid() == parent else "helper"]
        with counter.get_lock():
            counter.value += 1
        real_send(conn, message)

    monkeypatch.setattr(Connection, "send", counted)
    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    train(paper_dataset, TrainConfig(epochs=3, layers=1, hidden_size=2))
    assert len(forks) == 1
    assert (sent["caller"].value, sent["helper"].value) == (4, 4)


@pytest.mark.parametrize("cpus, shards", [(2, 4), (4, 2)])
def test_a_helper_answers_each_epoch_with_one_gradient_vector_whatever_its_shard_count(
    monkeypatch, paper_dataset, cpus, shards
):
    """The paper fixture's eight shards on two CPUs (a helper runs four)
    and on four (each of three helpers runs two): each epoch's answer is
    its shards' predictions and one vector, their gradients' sum, and the
    final train-split pass's carries no vector. 3 epochs, 3 vectors each."""
    config, parent, real_send = TrainConfig(epochs=3, layers=1, hidden_size=2), os.getpid(), Connection.send
    widths = tuple(None if s is None else s.shape[2] for s in paper_dataset.streams)
    size = NetworkParameters(model_shape(widths, config)).vector.shape
    seen = {kind: forked.shared_counter() for kind in ("one vector", "no vector", "other")}

    def counted(conn, message):
        if os.getpid() != parent:
            parts, vector = message
            kind = "other" if len(parts) != shards else "no vector" if vector is None else (
                "one vector" if isinstance(vector, np.ndarray) and vector.shape == size else "other")
            with seen[kind].get_lock():
                seen[kind].value += 1
        real_send(conn, message)

    monkeypatch.setattr(Connection, "send", counted)
    _on_cpus(monkeypatch, cpus)
    train(paper_dataset, config)
    helpers = cpus - 1
    assert {kind: counter.value for kind, counter in seen.items()} == {
        "one vector": 3 * helpers, "no vector": helpers, "other": 0
    }


def test_a_process_runs_its_shards_through_caches_that_share_one_block(paper_dataset):
    """Each shard's cache covers exactly its windows, and all of them are
    views of one block, so each shard's forward overwrites the last one's
    activations. Every shard still yields the predictions and unscaled
    gradient of a forward and a backward pass on fresh arrays."""
    split, params = paper_dataset.train, init_parameters(SMALL_SHAPE, seed=1)
    shards = shard_bounds(split.n_windows)
    own = training._Shards(split, shards, params)
    results = list(own.run(backward=True))
    assert all(cache is own_cache for (cache, _), own_cache in zip(results, own.caches, strict=True))
    assert [cache.n_windows for cache in own.caches] == [len(shard) for shard in shards]
    block = own.caches[0].x.base
    assert block.nbytes == sum(a.nbytes for a in own.caches[0].buffers())
    for cache in own.caches:
        assert all(a.base is block for a in cache.buffers())
    for shard, (cache, grads) in zip(shards, results):
        fresh = forward_batch(tuple(s[shard.start : shard.stop] for s in split.streams), params)
        assert np.array_equal(cache.predictions, fresh.predictions)
        residual = fresh.predictions - split.labels[shard.start : shard.stop]
        assert np.array_equal(grads.vector, backward_batch(fresh, residual).vector)


def _random_dataset(train_windows: int, test_windows: int = 4) -> WindowedDataset:
    """Random streams of 12 steps: `train_windows` training windows, then `test_windows` test ones."""
    rng, n = np.random.default_rng(train_windows), train_windows + test_windows
    streams = (rng.normal(size=(n, 12, 3)), rng.normal(size=(n, 12, 3)), rng.uniform(size=(n, 12, 1)))
    return WindowedDataset(streams, rng.uniform(size=n), np.arange(n), train_windows)


def test_a_grid_cell_holds_one_shard_of_activations_whatever_its_window_count():
    """A 1 x 8 LSTM trained in the caller alone: 4,096 windows are 32
    shards of 128, against 8 at 1,024, through one block of 128 windows'
    activations (~4.8 KB a window). What grows with the window count is
    bounded by 40 bytes per added window: each cache's predictions and the
    last epoch's joined ones, 16 bytes, and each shard's views and cache
    objects, ~2 KB a shard (it reads 30-32 bytes from 1,024 windows to
    4,096 at peaks of ~0.93 MB; one cache of every window would add
    ~4.8 KB a window)."""
    config = TrainConfig(epochs=2, layers=1, hidden_size=8)
    peaks = {n: _traced_peak(_random_dataset(n), config, fork_helpers=False)[0] for n in (1024, 4096)}
    assert peaks[4096] - peaks[1024] < 40 * (4096 - 1024), peaks


def test_the_test_split_is_held_one_shard_at_a_time():
    """The same 1 x 8 LSTM on 256 training windows, two shards of 128:
    1,024 test windows run as eight shards of 128 through one block, so
    the traced peak stays that of 64 test windows (both ~0.89 MB; ~1.71 MB
    with shards of 256). One cache of every test window holds 4.9 MB of
    buffers alone."""
    config = TrainConfig(epochs=1, layers=1, hidden_size=8)
    peaks = {n: _traced_peak(_random_dataset(256, n), config, fork_helpers=False)[0] for n in (64, 1024)}
    assert peaks[1024] < 1.1 * peaks[64], peaks


def test_a_test_split_of_several_shards_matches_one_forward_and_a_per_shard_forget_oracle():
    """600 test windows are four shards of 150. Their predictions differ
    from one 600-window forward pass by at most 2.2e-16, as BLAS blocks a
    GEMM by its width. The forget-gate mean is each shard's pairwise sum,
    added in shard order, over the count of all."""
    split, params = _random_dataset(4, 600).test, init_parameters(SMALL_SHAPE, seed=1)
    shards = shard_bounds(split.n_windows)
    assert [len(shard) for shard in shards] == [150] * 4
    run = training._Shards(split, shards, params).run(backward=False)
    predictions = np.concatenate([cache.predictions for cache, _ in run])
    assert np.abs(predictions - forward_batch(split.streams, params).predictions).max() <= 2.2e-16
    total, count = 0.0, 0
    for shard in shards:
        cache = forward_batch(tuple(s[shard.start : shard.stop] for s in split.streams), params)
        values = [float(lc.f[t, u, w]) for w in range(len(shard)) for lc in cache.layers for t in range(12)
                  for u in range(8)]
        total += pairwise_sum(values)
        count += len(values)
    assert evaluate(split, params) == (rmse(predictions, split.labels), total / count)


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_a_tanh_stack_has_no_forget_gate_mean_and_an_empty_test_split_no_test_metrics(cell):
    config = TrainConfig(epochs=1, layers=1, hidden_size=2, cell=cell)
    run = train(_random_dataset(8), config)
    assert math.isfinite(run.test_rmse)
    assert (run.test_mean_forget is None) == (cell == "rnn")
    empty = train(_random_dataset(8, 0), config)
    assert (empty.test_rmse, empty.test_mean_forget) == (None, None)


def test_a_grid_cell_trains_its_shards_in_the_caller(monkeypatch, paper_dataset):
    forks = _count_forks(monkeypatch)
    _on_cpus(monkeypatch, 2)
    config = TrainConfig(epochs=1, layers=1, hidden_size=2)
    run = train(paper_dataset, config, fork_helpers=False)
    _on_cpus(monkeypatch, 1)
    assert forks == []
    assert run.parameters.vector.tobytes() == train(paper_dataset, config).parameters.vector.tobytes()


def test_a_non_finite_prediction_in_a_helper_shard_reports_its_epoch(monkeypatch, paper_dataset):
    def poison(call, streams, params):
        if call == 5:  # the helper's first shard's forward at epoch 1, after its four at epoch 0
            streams = (np.full_like(streams[0], np.nan),) + streams[1:]
        return streams, params

    _on_cpus(monkeypatch, 2)
    _in_helpers(monkeypatch, "forward_batch", poison)
    with pytest.raises(DivergenceError, match="^diverged at epoch 1: non-finite prediction in forward pass$") as err:
        train(paper_dataset, TrainConfig(epochs=4, layers=1, hidden_size=2))
    assert err.value.epoch == 1
    assert multiprocessing.active_children() == []


def test_a_helper_that_exits_mid_run_raises_naming_its_pid_and_exit_code(monkeypatch, paper_dataset):
    _on_cpus(monkeypatch, 2)
    _in_helpers(monkeypatch, "backward_batch", lambda call, *args: os._exit(3))
    exited = r"^training helper process \d+ exited with code 3 before reporting its shards$"
    with pytest.raises(RuntimeError, match=exited) as err:
        train(paper_dataset, TrainConfig(epochs=2, layers=1, hidden_size=2))
    assert str(os.getpid()) not in str(err.value)
    assert multiprocessing.active_children() == []


def test_a_failure_in_the_caller_mid_epoch_still_joins_the_helper(monkeypatch, paper_dataset):
    """The caller's Adam step rejects a non-finite gradient at epoch 2 while
    the helper waits for the next epoch: the error carries the epoch, and the
    helper is joined before it leaves `train`."""
    parent, calls = os.getpid(), []

    def poisoned(cache, d_predictions):
        grads = backward_batch(cache, d_predictions)
        if os.getpid() == parent:
            calls.append(None)
            if len(calls) == 9:  # the caller's first shard at epoch 2, after four at each of epochs 0 and 1
                grads.head.b[...] = np.nan
        return grads

    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(training, "backward_batch", poisoned)
    with pytest.raises(DivergenceError, match="head.b") as err:
        train(paper_dataset, TrainConfig(epochs=5, layers=1, hidden_size=2))
    assert err.value.epoch == 2 and len(forks) == 1
    assert multiprocessing.active_children() == []


class _Refused(Exception):
    pass


@pytest.mark.parametrize("fails", [False, True], ids=["evaluates", "raises"])
def test_train_evaluates_its_test_split_while_its_helper_exits(monkeypatch, paper_dataset, fails):
    """After the final train-split pass, `train` closes its helper's pipe
    and evaluates the test split inside the helpers' block, so the helper
    exits while the caller evaluates, and leaving the block only joins it.
    A raise from that evaluation keeps its type and still joins the helper."""
    blocks, events = [], []
    real_enter, real_exit, real_evaluate = forked.Helpers.__enter__, forked.Helpers.__exit__, training.evaluate

    def evaluate(split, params):
        events.append(("evaluate", [helper.conn.closed for block in blocks for helper in block.started]))
        if fails:
            raise _Refused("the test split")
        return real_evaluate(split, params)

    monkeypatch.setattr(forked.Helpers, "__enter__", lambda self: blocks.append(self) or real_enter(self))
    monkeypatch.setattr(forked.Helpers, "__exit__", lambda self, *exc: events.append("exit") or real_exit(self, *exc))
    monkeypatch.setattr(training, "evaluate", evaluate)
    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    with pytest.raises(_Refused) if fails else contextlib.nullcontext():
        train(paper_dataset, TrainConfig(epochs=1, layers=1, hidden_size=2))
    assert len(forks) == 1 and events == [("evaluate", [True]), "exit"]
    assert multiprocessing.active_children() == []


# --- gradient check -----------------------------------------------------------


def test_gradient_check_passes_small_lstm():
    errors = gradient_check(SMALL_SHAPE, 0, rmse, rmse_gradient)
    assert max(errors.values()) <= 1e-5, errors
    assert set(errors) == {name for name, _ in init_parameters(SMALL_SHAPE, 0).param_items()}


def test_gradient_check_passes_rnn():
    shape = ModelShape(cell="rnn", d_a=3, d_f=3, d_s=1, d_i=2, layers=2, hidden=6)
    errors = gradient_check(shape, 1, rmse, rmse_gradient)
    assert max(errors.values()) <= 1e-5, errors


def test_gradient_check_localizes_corruption(monkeypatch):
    def corrupted(cache, d_predictions):
        grads = backward_batch(cache, d_predictions)
        dict(grads.param_items())["layers.0.W_f"][...] += 1.0
        return grads

    monkeypatch.setattr("oracles.backward_batch", corrupted)
    errors = gradient_check(SMALL_SHAPE, 0, rmse, rmse_gradient)
    assert [name for name, error in errors.items() if error > 1e-5] == ["layers.0.W_f"]


# --- checkpoints ---------------------------------------------------------------


def _columns(shape: ModelShape) -> dict:
    """Column names for each stream width of `shape`."""
    return {"fundamental": [f"a{k}" for k in range(shape.d_a)], "technical": [f"f{k}" for k in range(shape.d_f)],
            "sentiment": None if shape.d_s is None else [f"s{k}" for k in range(shape.d_s)]}


def _save(params, config: TrainConfig) -> str:
    return save_checkpoint(params, config, NormalizationScale(0.0, 1.0), column_scales={},
                           columns=_columns(params.shape))


def test_checkpoint_round_trip_bitwise():
    params = init_parameters(SMALL_SHAPE, seed=123)
    config = TrainConfig(epochs=7, seed=123, layers=3, hidden_size=8, d_i=2)
    scale = NormalizationScale(1728.339966, 1902.880005)
    column_scales = {"Adj. Price": scale, "TDD": None}
    text = save_checkpoint(params, config, scale, column_scales=column_scales, columns=_columns(SMALL_SHAPE))
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
    return _save(params, TrainConfig(layers=1, hidden_size=2))


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_load_checkpoint_draws_no_seeded_weights(monkeypatch, cell):
    """The loader fills a template that it builds without drawing weights,
    and the stored vector still reads back bit for bit."""
    shape = replace(SMALL_SHAPE, cell=cell)
    params = init_parameters(shape, seed=123)
    config = TrainConfig(cell=cell, layers=shape.layers, hidden_size=shape.hidden, d_i=shape.d_i)
    text = _save(params, config)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew seeded weights")

    monkeypatch.setattr(training, "init_parameters", refuse)
    loaded = load_checkpoint(text)
    assert np.array_equal(loaded.params.vector.view(np.uint64), params.vector.view(np.uint64))
    assert [name for name, _ in loaded.params.param_items()] == [name for name, _ in params.param_items()]


def test_checkpoint_version_mismatch():
    bumped = _tiny_checkpoint().replace('"schema_version": 4', '"schema_version": 5', 1)
    with pytest.raises(CheckpointError, match="schema_version"):
        load_checkpoint(bumped)


def test_checkpoint_version_1_is_rejected():
    doc = json.loads(_tiny_checkpoint())
    del doc["vector"]
    doc.update(schema_version=1, model={"cell": "lstm", "fusion": {}, "layers": [], "head": {}})
    with pytest.raises(CheckpointError, match="schema_version 1.*retrain"):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_version_2_is_rejected():
    params = init_parameters(ModelShape(layers=1, hidden=2), seed=0)
    doc = json.loads(_tiny_checkpoint())
    del doc["vector"]
    doc.update(schema_version=2, params={name: array.tolist() for name, array in params.param_items()})
    with pytest.raises(CheckpointError, match="schema_version 2.*retrain"):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_version_3_is_rejected():
    doc = json.loads(_tiny_checkpoint())
    doc.update(schema_version=3, shape={"cell": "lstm", "d_a": 3, "d_f": 3, "d_s": 1, "d_i": None,
                                        "layers": 1, "hidden": 2})
    with pytest.raises(CheckpointError, match="schema_version 3.*retrain"):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_stores_each_model_description_once():
    """The config and the column names describe the model; a second record
    of its shape could disagree with them."""
    assert list(json.loads(_tiny_checkpoint())) == [
        "schema_version", "config", "scale", "column_scales", "columns", "vector"
    ]


def test_save_checkpoint_refuses_a_model_its_config_and_columns_do_not_describe():
    params = init_parameters(SMALL_SHAPE, seed=0)
    with pytest.raises(ValueError, match="another model"):
        _save(params, TrainConfig(layers=3, hidden_size=8))


# -0.0, the smallest subnormal, +-inf, a quiet NaN with a payload and a
# signalling NaN: values a decimal codec could lose.
_SPECIAL_BITS = np.array(
    [0x8000000000000000, 0x0000000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
     0x7FF8000000000123, 0x7FF0000000000001],
    dtype=np.uint64,
)


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_checkpoint_vector_round_trips_any_float64_bitwise(bits):
    shape = ModelShape(d_a=1, d_f=1, d_s=None, layers=1, hidden=1)
    params = init_parameters(shape, seed=0)
    stored = np.resize(np.array(bits, dtype=np.uint64), params.vector.size)
    stored[: _SPECIAL_BITS.size] = _SPECIAL_BITS
    params.vector[...] = stored.view(np.float64)
    text = _save(params, TrainConfig(layers=1, hidden_size=1))
    loaded = load_checkpoint(text)
    assert np.array_equal(loaded.params.vector.view(np.uint64), stored)


def test_checkpoint_truncated():
    text = _tiny_checkpoint()
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(text[: len(text) // 2])


def _small_checkpoint_doc() -> dict:
    params = init_parameters(SMALL_SHAPE, seed=4)
    config = TrainConfig(layers=3, hidden_size=8, d_i=2)
    return json.loads(_save(params, config))


@pytest.mark.parametrize(
    "field, value", [("cell", "rnn"), ("layers", 2), ("hidden_size", 9), ("d_i", None)]
)
def test_checkpoint_rejects_config_that_disagrees_with_the_model(field, value):
    doc = _small_checkpoint_doc()
    load_checkpoint(json.dumps(doc))
    doc["config"][field] = value
    with pytest.raises(CheckpointError, match="the model needs"):
        load_checkpoint(json.dumps(doc))


def _rnn_shape_over_memory_cells(doc):
    doc["config"]["cell"] = "rnn"


def _edit_vector_bytes(doc, edit):
    doc["vector"] = base64.b64encode(edit(base64.b64decode(doc["vector"]))).decode("ascii")


def _vector_one_value_short(doc):
    _edit_vector_bytes(doc, lambda data: data[:-8])


def _vector_one_value_long(doc):
    _edit_vector_bytes(doc, lambda data: data + data[:8])


def _vector_not_base64(doc):
    doc["vector"] = "zero!" + doc["vector"]


def _vector_as_list(doc):
    doc["vector"] = np.frombuffer(base64.b64decode(doc["vector"]), dtype="<f8").tolist()


def _fractional_hidden(doc):
    doc["config"]["hidden_size"] = 8.0


def _columns_as_a_string(doc):
    doc["columns"]["technical"] = "RSI"  # as long as the three names it replaces


def _columns_empty(doc):
    doc["columns"]["fundamental"] = []


def _columns_without_sentiment_key(doc):
    del doc["columns"]["sentiment"]


def _column_scales_as_a_list(doc):
    doc["column_scales"] = [None]


_MALFORMED = [
    (_rnn_shape_over_memory_cells, "the model needs"),
    (_vector_one_value_short, "holds 12768 bytes, the model needs 12776"),
    (_vector_one_value_long, "holds 12784 bytes, the model needs 12776"),
    (_vector_not_base64, "not valid base64"),
    (_vector_as_list, "must be a base64 string, got list"),
    (_fractional_hidden, "invalid checkpoint contents"),
    (_columns_as_a_string, "technical columns must be a non-empty list of strings, got 'RSI'"),
    (_columns_empty, r"fundamental columns must be a non-empty list of strings, got \[\]"),
    (_columns_without_sentiment_key, "columns must be an object with keys fundamental, technical, sentiment"),
    (_column_scales_as_a_list, "invalid checkpoint contents"),
]


@pytest.mark.parametrize("edit, message", _MALFORMED, ids=[edit.__name__ for edit, _ in _MALFORMED])
def test_checkpoint_rejects_a_malformed_model(edit, message):
    doc = _small_checkpoint_doc()
    edit(doc)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(json.dumps(doc))


def test_checkpoint_reproduces_test_rmse(sine_bundle):
    config = TrainConfig(epochs=40, seed=9, hidden_size=8)
    run = train(sine_bundle.dataset, config)
    text = save_checkpoint(run.parameters, config, sine_bundle.price_scale,
                           column_scales=sine_bundle.column_scales, columns=sine_bundle.columns)
    loaded = load_checkpoint(text)
    assert evaluate(sine_bundle.dataset.test, loaded.params) == (run.test_rmse, run.test_mean_forget)
