"""Online linear classifiers on sparse hashed features.

All three models share the interface: ``partial_fit(batch, labels)``
for incremental mini-batch training and ``predict(vector)`` → 0/1.
Labels are binary (0 = "HTML", 1 = "Target" for the URL classifier).

* :class:`LogisticRegressionSGD` — the paper's default (Algorithm 2):
  log-loss SGD with a constant learning rate, mini-batch epochs.
* :class:`LinearSVMSGD` — hinge-loss SGD with L2 regularisation.
* :class:`PassiveAggressiveClassifier` — PA-I updates [Shalev-Shwartz
  et al. 2003], the "PA" variant of Table 5.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.ml.features import HashedVector


class _LinearModel:
    """Shared machinery: dense weight vector over the hashed space."""

    def __init__(self, dim: int, seed: int = 0) -> None:
        self.dim = dim
        self.weights = np.zeros(dim, dtype=np.float64)
        self.bias = 0.0
        self.n_updates = 0
        self._rng = random.Random(seed)

    def decision_function(self, x: HashedVector) -> float:
        if x.dim != self.dim:
            raise ValueError(f"feature dim {x.dim} != model dim {self.dim}")
        return float(self.weights[x.indices] @ x.values + self.bias)

    def _check_dims(self, batch: list[HashedVector]) -> None:
        """Reject a mis-dimensioned batch before any update (the SGD
        steps below compute the decision function inline)."""
        for x in batch:
            if x.dim != self.dim:
                raise ValueError(f"feature dim {x.dim} != model dim {self.dim}")

    def predict(self, x: HashedVector) -> int:
        return 1 if self.decision_function(x) > 0.0 else 0

    def predict_many(self, xs: list[HashedVector]) -> list[int]:
        return [self.predict(x) for x in xs]

    def _shuffled_epochs(
        self, batch: list[HashedVector], labels: list[int], epochs: int
    ):
        indices = list(range(len(batch)))
        for _ in range(epochs):
            self._rng.shuffle(indices)
            for i in indices:
                yield batch[i], labels[i]

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_array, encode_rng_state

        return {
            "weights": encode_array(self.weights),
            "bias": self.bias,
            "n_updates": self.n_updates,
            "rng": encode_rng_state(self._rng),
        }

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_array, decode_rng_state

        self.weights = decode_array(state["weights"])
        self.bias = state["bias"]
        self.n_updates = state["n_updates"]
        self._rng.setstate(decode_rng_state(state["rng"]))


class LogisticRegressionSGD(_LinearModel):
    """Binary logistic regression trained by mini-batch SGD (Algorithm 2)."""

    def __init__(
        self,
        dim: int,
        learning_rate: float = 0.1,
        l2: float = 1e-6,
        epochs: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, seed)
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs

    def predict_proba(self, x: HashedVector) -> float:
        z = self.decision_function(x)
        # Clamp to avoid overflow in exp for confident predictions.
        z = max(-30.0, min(30.0, z))
        return 1.0 / (1.0 + math.exp(-z))

    def partial_fit(self, batch: list[HashedVector], labels: list[int]) -> None:
        if len(batch) != len(labels):
            raise ValueError("batch and labels must have the same length")
        self._check_dims(batch)
        lr, l2, weights = self.learning_rate, self.l2, self.weights
        for x, y in self._shuffled_epochs(batch, labels, self.epochs):
            indices = x.indices
            if not len(indices):
                continue
            # One gather and one scatter per step: the indices are sorted
            # and unique, so this equals ``weights[indices] -= ...``.
            # ``w.dot`` is the same BLAS ddot as ``@``, with less dispatch.
            w = weights[indices]
            z = max(-30.0, min(30.0, float(w.dot(x.values)) + self.bias))
            gradient = 1.0 / (1.0 + math.exp(-z)) - y
            weights[indices] = w - lr * (gradient * x.values + l2 * w)
            self.bias -= lr * gradient
            self.n_updates += 1


class LinearSVMSGD(_LinearModel):
    """Linear SVM trained by hinge-loss SGD (Pegasos-style constant rate)."""

    def __init__(
        self,
        dim: int,
        learning_rate: float = 0.1,
        l2: float = 1e-6,
        epochs: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, seed)
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs

    def partial_fit(self, batch: list[HashedVector], labels: list[int]) -> None:
        if len(batch) != len(labels):
            raise ValueError("batch and labels must have the same length")
        self._check_dims(batch)
        lr, weights = self.learning_rate, self.weights
        for x, y in self._shuffled_epochs(batch, labels, self.epochs):
            indices = x.indices
            if not len(indices):
                continue
            sign = 1.0 if y == 1 else -1.0
            w = weights[indices]
            margin = sign * (float(w.dot(x.values)) + self.bias)
            w *= 1.0 - lr * self.l2
            if margin < 1.0:
                w += lr * sign * x.values
                self.bias += lr * sign
            weights[indices] = w
            self.n_updates += 1


class PassiveAggressiveClassifier(_LinearModel):
    """PA-I classifier: aggressive margin updates bounded by ``C``."""

    def __init__(self, dim: int, C: float = 1.0, epochs: int = 1, seed: int = 0) -> None:
        super().__init__(dim, seed)
        self.C = C
        self.epochs = epochs

    def partial_fit(self, batch: list[HashedVector], labels: list[int]) -> None:
        if len(batch) != len(labels):
            raise ValueError("batch and labels must have the same length")
        self._check_dims(batch)
        weights = self.weights
        for x, y in self._shuffled_epochs(batch, labels, self.epochs):
            indices = x.indices
            if not len(indices):
                continue
            sign = 1.0 if y == 1 else -1.0
            w = weights[indices]
            loss = max(0.0, 1.0 - sign * (float(w.dot(x.values)) + self.bias))
            # Exact zero is intended: hinge loss is literally max(0.0, ...).
            if loss == 0.0:  # repro: noqa[COR002]
                continue
            norm_sq = float(np.dot(x.values, x.values)) + 1.0  # +1 for bias
            tau = min(self.C, loss / norm_sq)
            weights[indices] = w + tau * sign * x.values
            self.bias += tau * sign
            self.n_updates += 1
