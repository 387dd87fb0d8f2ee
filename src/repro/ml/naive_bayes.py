"""Incremental multinomial Naive Bayes over hashed count features.

The "NB" variant of the paper's Table 5 classifier study.  Class-
conditional token counts accumulate across ``partial_fit`` calls, so the
model is naturally online; Laplace smoothing keeps unseen features from
zeroing out the likelihood.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.features import HashedVector


class MultinomialNaiveBayes:
    """Binary multinomial NB with Laplace smoothing."""

    def __init__(self, dim: int, alpha: float = 1.0) -> None:
        self.dim = dim
        self.alpha = alpha
        self.feature_counts = np.zeros((2, dim), dtype=np.float64)
        self.class_counts = np.zeros(2, dtype=np.float64)
        self.total_counts = np.zeros(2, dtype=np.float64)
        self.n_updates = 0

    def partial_fit(self, batch: list[HashedVector], labels: list[int]) -> None:
        if len(batch) != len(labels):
            raise ValueError("batch and labels must have the same length")
        for x, y in zip(batch, labels):
            if y not in (0, 1):
                raise ValueError("labels must be 0 or 1")
            self.feature_counts[y, x.indices] += x.values
            self.total_counts[y] += float(x.values.sum())
            self.class_counts[y] += 1.0
            self.n_updates += 1

    def _log_likelihood(self, x: HashedVector, y: int) -> float:
        if self.class_counts.sum() == 0:
            return 0.0
        prior = (self.class_counts[y] + 1.0) / (self.class_counts.sum() + 2.0)
        denom = self.total_counts[y] + self.alpha * self.dim
        token_probs = (self.feature_counts[y, x.indices] + self.alpha) / denom
        return math.log(prior) + float(np.dot(x.values, np.log(token_probs)))

    def decision_function(self, x: HashedVector) -> float:
        return self._log_likelihood(x, 1) - self._log_likelihood(x, 0)

    def predict(self, x: HashedVector) -> int:
        return 1 if self.decision_function(x) > 0.0 else 0

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_array

        return {
            "feature_counts": encode_array(self.feature_counts),
            "class_counts": encode_array(self.class_counts),
            "total_counts": encode_array(self.total_counts),
            "n_updates": self.n_updates,
        }

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_array

        self.feature_counts = decode_array(state["feature_counts"])
        self.class_counts = decode_array(state["class_counts"])
        self.total_counts = decode_array(state["total_counts"])
        self.n_updates = state["n_updates"]
