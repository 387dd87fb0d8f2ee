"""Tests for the online linear models."""

import random

import numpy as np
import pytest

from repro.ml.features import hashed_bow
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
    """The three-gather LR step: predict_proba, then ``-=`` re-gathering."""
    lr = model.learning_rate
    for x, y in model._shuffled_epochs(batch, labels, model.epochs):
        if x.nnz == 0:
            continue
        p = model.predict_proba(x)
        gradient = p - y
        model.weights[x.indices] -= lr * (
            gradient * x.values + model.l2 * model.weights[x.indices]
        )
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
    """Gathering ``weights[indices]`` once per step gives the same bits
    as the re-gathering step it replaced (indices are sorted, unique)."""
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
