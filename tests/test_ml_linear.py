"""Tests for the online linear models."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.features import HashedVector, hashed_bow, merge_vectors
from repro.ml.linear import (
    LinearSVMSGD,
    LogisticRegressionSGD,
    PassiveAggressiveClassifier,
)
from repro.ml.naive_bayes import MultinomialNaiveBayes

DIM = 1 << 12

MODELS = [
    lambda: LogisticRegressionSGD(DIM, seed=0),
    lambda: LinearSVMSGD(DIM, seed=0),
    lambda: PassiveAggressiveClassifier(DIM, seed=0),
    lambda: MultinomialNaiveBayes(DIM),
]


def _separable_data(n=200, seed=0):
    """URL-like strings: /files/*.csv are class 1, /pages/* class 0."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        if rng.random() < 0.5:
            data.append((f"https://s.example/files/data-{i}.csv", 1))
        else:
            data.append((f"https://s.example/pages/article-{i}", 0))
    return data


@pytest.mark.parametrize("factory", MODELS)
def test_learns_separable_urls(factory):
    model = factory()
    data = _separable_data()
    train, test = data[:150], data[150:]
    X = [hashed_bow(u, dim=DIM) for u, _ in train]
    y = [label for _, label in train]
    for start in range(0, len(X), 10):
        model.partial_fit(X[start : start + 10], y[start : start + 10])
    correct = sum(
        1 for u, label in test if model.predict(hashed_bow(u, dim=DIM)) == label
    )
    assert correct / len(test) > 0.9, type(model).__name__


@pytest.mark.parametrize("factory", MODELS)
def test_partial_fit_length_mismatch(factory):
    model = factory()
    with pytest.raises(ValueError):
        model.partial_fit([hashed_bow("x", dim=DIM)], [0, 1])


def test_lr_predict_proba_in_range():
    model = LogisticRegressionSGD(DIM, seed=0)
    x = hashed_bow("anything", dim=DIM)
    assert 0.0 <= model.predict_proba(x) <= 1.0
    model.partial_fit([x] * 10, [1] * 10)
    assert model.predict_proba(x) > 0.5


def test_lr_dim_mismatch_rejected():
    model = LogisticRegressionSGD(DIM)
    with pytest.raises(ValueError):
        model.decision_function(hashed_bow("x", dim=DIM * 2))


def test_pa_skips_when_margin_satisfied():
    model = PassiveAggressiveClassifier(DIM, seed=0)
    x = hashed_bow("stable example", dim=DIM)
    model.partial_fit([x] * 5, [1] * 5)
    updates = model.n_updates
    # Margin now satisfied: further identical examples cause no updates.
    model.partial_fit([x] * 5, [1] * 5)
    assert model.n_updates == updates


def test_nb_incremental_counts():
    model = MultinomialNaiveBayes(DIM)
    x1 = hashed_bow("files csv data", dim=DIM)
    x0 = hashed_bow("pages article news", dim=DIM)
    model.partial_fit([x1, x0], [1, 0])
    assert model.class_counts.tolist() == [1.0, 1.0]
    model.partial_fit([x1], [1])
    assert model.class_counts.tolist() == [1.0, 2.0]
    assert model.predict(x1) == 1
    assert model.predict(x0) == 0


def test_nb_rejects_bad_labels():
    model = MultinomialNaiveBayes(DIM)
    with pytest.raises(ValueError):
        model.partial_fit([hashed_bow("x", dim=DIM)], [2])


def test_untrained_models_predict_something():
    x = hashed_bow("x", dim=DIM)
    for factory in MODELS:
        assert factory().predict(x) in (0, 1)


# -- the one-gather SGD steps against the pre-optimisation kernels ----------


def _reference_lr_fit(model, batch, labels):
    """The LR step with a fresh temporary per operation and Python-float
    operands: one gather, then ``w - lr * (gradient * values + l2 * w)``."""
    lr, l2, weights = model.learning_rate, model.l2, model.weights
    for x, y in model._shuffled_epochs(batch, labels, model.epochs):
        if x.nnz == 0:
            continue
        w = weights[x.indices]
        z = max(-30.0, min(30.0, float(w.dot(x.values)) + model.bias))
        gradient = 1.0 / (1.0 + math.exp(-z)) - y
        weights[x.indices] = w - lr * (gradient * x.values + l2 * w)
        model.bias -= lr * gradient
        model.n_updates += 1


def _reference_svm_fit(model, batch, labels):
    lr = model.learning_rate
    for x, y in model._shuffled_epochs(batch, labels, model.epochs):
        if x.nnz == 0:
            continue
        sign = 1.0 if y == 1 else -1.0
        margin = sign * model.decision_function(x)
        model.weights[x.indices] *= 1.0 - lr * model.l2
        if margin < 1.0:
            model.weights[x.indices] += lr * sign * x.values
            model.bias += lr * sign
        model.n_updates += 1


def _reference_pa_fit(model, batch, labels):
    for x, y in model._shuffled_epochs(batch, labels, model.epochs):
        if x.nnz == 0:
            continue
        sign = 1.0 if y == 1 else -1.0
        loss = max(0.0, 1.0 - sign * model.decision_function(x))
        if loss == 0.0:
            continue
        norm_sq = float(np.dot(x.values, x.values)) + 1.0
        tau = min(model.C, loss / norm_sq)
        model.weights[x.indices] += tau * sign * x.values
        model.bias += tau * sign
        model.n_updates += 1


def _random_batches(seed, n_batches=12, dim=DIM):
    """Batches of random URL-ish strings; about one vector in eight is
    empty (the step must skip it)."""
    rng = random.Random(seed)
    alphabet = "abcdefghij/.-_0123456789"
    batches = []
    for _ in range(n_batches):
        size = rng.randint(1, 25)
        texts = [
            "" if rng.random() < 0.125
            else "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 80)))
            for _ in range(size)
        ]
        batch = [hashed_bow(text, dim=dim, seed=rng.randint(0, 4)) for text in texts]
        labels = [rng.randint(0, 1) for _ in range(size)]
        batches.append((batch, labels))
    return batches


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cls, reference", [
    (LogisticRegressionSGD, _reference_lr_fit),
    (LinearSVMSGD, _reference_svm_fit),
    (PassiveAggressiveClassifier, _reference_pa_fit),
])
def test_one_gather_step_is_bit_identical(cls, reference, seed):
    """Each kernel gives the same bits as its plain reference step."""
    batches = _random_batches(seed)
    assert any(x.nnz == 0 for batch, _ in batches for x in batch)
    model, expected = cls(DIM, seed=seed), cls(DIM, seed=seed)
    for batch, labels in batches:
        model.partial_fit(batch, labels)
        reference(expected, batch, labels)
        assert np.array_equal(model.weights, expected.weights)
        assert model.bias == expected.bias
        assert model.n_updates == expected.n_updates
    assert model.n_updates > 0


@pytest.mark.parametrize("factory", MODELS[:3])
def test_partial_fit_rejects_dim_mismatch_before_updating(factory):
    model = factory()
    good, bad = hashed_bow("good", dim=DIM), hashed_bow("bad", dim=DIM * 2)
    with pytest.raises(ValueError):
        model.partial_fit([good, bad], [1, 0])
    assert model.n_updates == 0
    assert not model.weights.any()


# -- the LR step on the batches the URL classifier trains on ----------------


def _assert_same_bits(model, expected):
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(expected.bias).tobytes()
    assert model.n_updates == expected.n_updates
    assert model._rng.getstate() == expected._rng.getstate()


def _url_cont_vector(rng, dim=DIM):
    """A URL_CONT-style vector: one to three 2-gram bags (URL, anchor,
    DOM path) summed, the URL bag twice, so the URL's counts are 2 or
    more."""
    alphabet = "abcdefghij/.-_0123456789"
    parts = [
        hashed_bow("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 60))),
                   dim=dim, seed=seed)
        for seed in range(1, rng.randint(2, 4))
    ]
    return merge_vectors(parts + parts[:1])


def _replay_batch(seed, size, empty_share, distinct):
    """``size`` vectors drawn from ``distinct`` URL_CONT vectors (so some
    repeat, as replayed labels do), with empty vectors mixed in."""
    rng = random.Random(seed)
    empty = HashedVector(np.zeros(0, dtype=np.int64), np.zeros(0), DIM)
    pool = [_url_cont_vector(rng) for _ in range(distinct)]
    batch = [empty if rng.random() < empty_share else rng.choice(pool)
             for _ in range(size)]
    return batch, [rng.randint(0, 1) for _ in range(size)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 410), min_size=2, max_size=3),
    empty_share=st.sampled_from([0.0, 0.1, 0.5]),
    distinct=st.integers(1, 60),
    learning_rate=st.sampled_from([0.1, 1.0, 50.0]),
    l2=st.sampled_from([0.0, 1e-6, 0.01]),
    epochs=st.integers(1, 3),
)
def test_lr_step_is_bit_identical_on_replay_batches(
    seed, sizes, empty_share, distinct, learning_rate, l2, epochs
):
    """Batches up to the largest warm-up window (410 vectors) of merged
    vectors with empties mixed in; the model under test is checkpointed
    and restored between fits, the reference is not."""
    def fresh():
        return LogisticRegressionSGD(
            DIM, learning_rate=learning_rate, l2=l2, epochs=epochs, seed=seed)

    model, expected = fresh(), fresh()
    for k, size in enumerate(sizes):
        batch, labels = _replay_batch(seed + k, size, empty_share, distinct)
        model.partial_fit(batch, labels)
        _reference_lr_fit(expected, batch, labels)
        _assert_same_bits(model, expected)
        restored = fresh()
        restored.restore_state(json.loads(json.dumps(model.snapshot_state())))
        _assert_same_bits(restored, model)
        model = restored


@pytest.mark.parametrize("learning_rate", [50.0, 1e300])
def test_lr_step_clamps_bit_identically(learning_rate):
    """Repeated vectors at a large rate drive the decision past the ±30
    clamp; at 1e300 the weights overflow and the clamp meets a NaN z,
    which it must turn into 30.0 as the reference does."""
    rng = random.Random(3)
    pool = [_url_cont_vector(rng) for _ in range(4)]
    batch = [pool[i % 4] for i in range(40)]
    labels = [i % 2 for i in range(40)]
    model = LogisticRegressionSGD(DIM, learning_rate=learning_rate, seed=1)
    expected = LogisticRegressionSGD(DIM, learning_rate=learning_rate, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            model.partial_fit(batch, labels)
            _reference_lr_fit(expected, batch, labels)
            _assert_same_bits(model, expected)
        decisions = [model.decision_function(x) for x in pool]
    if learning_rate == 50.0:
        assert max(abs(z) for z in decisions) > 30.0
    else:
        assert np.isnan(model.weights).any()
        assert not math.isnan(model.bias)


def test_decision_function_equals_matmul_bit_for_bit():
    rng = np.random.default_rng(0)
    model = LogisticRegressionSGD(DIM)
    for _ in range(300):
        model.weights = rng.normal(scale=rng.uniform(0.01, 100.0), size=DIM)
        model.bias = float(rng.normal())
        nnz = int(rng.integers(1, 600))
        indices = np.sort(rng.choice(DIM, size=nnz, replace=False))
        values = rng.integers(1, 6, size=nnz).astype(np.float64)
        x = HashedVector(indices, values, DIM)
        expected = float(model.weights[indices] @ values) + model.bias
        assert np.float64(model.decision_function(x)).tobytes() == \
            np.float64(expected).tobytes()
