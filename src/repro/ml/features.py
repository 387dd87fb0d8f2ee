"""Hashed character n-gram bag-of-words features.

The URL classifier (Sec. 3.3) encodes a URL as a bag of character
2-grams over "usual ASCII characters".  We hash n-grams into a fixed
dimension so the model's weight vector never needs resizing as new
n-grams appear — the standard hashing trick for online learning.
Vectors are sparse: parallel ``indices``/``values`` arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Default feature dimension for hashed vectors.
DEFAULT_DIM = 1 << 14


@dataclass(frozen=True)
class HashedVector:
    """Sparse feature vector: sorted unique indices and their counts."""

    indices: np.ndarray  # int64, sorted, unique
    values: np.ndarray   # float64
    dim: int

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def l2_norm(self) -> float:
        return float(np.sqrt(np.dot(self.values, self.values)))

    def scale(self, factor: float) -> "HashedVector":
        return HashedVector(self.indices, self.values * factor, self.dim)


def encode_vector(vector: HashedVector) -> list:
    """Canonical-JSON-safe form of a vector (checkpoint payloads)."""
    from repro.checkpoint.codec import encode_array

    return [encode_array(vector.indices), encode_array(vector.values), vector.dim]


def decode_vector(state: list) -> HashedVector:
    """Inverse of :func:`encode_vector`, bit for bit."""
    from repro.checkpoint.codec import decode_array

    indices, values, dim = state
    return HashedVector(decode_array(indices), decode_array(values), dim)


def char_ngrams(text: str, n: int = 2) -> list[str]:
    """Character n-grams of ``text`` (e.g. ``"abc"`` → ``["ab", "bc"]``)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def hashed_bow(
    text: str, n: int = 2, dim: int = DEFAULT_DIM, seed: int = 0
) -> HashedVector:
    """Hash the character n-grams of ``text`` into a sparse count vector.

    An n-gram's index is ``crc32(f"{seed}:{token}") % dim``: crc32 is
    fast, deterministic across processes, and good enough for feature
    hashing.  The CRC of the ``"{seed}:"`` prefix is computed once and
    continued per n-gram, which gives the same value.
    """
    crc32 = zlib.crc32
    prefix = crc32(f"{seed}:".encode("utf-8"))
    counts: dict[int, int] = {}
    for token in char_ngrams(text, n):
        index = crc32(token.encode("utf-8"), prefix) % dim
        counts[index] = counts.get(index, 0) + 1
    if not counts:
        return HashedVector(np.empty(0, dtype=np.int64), np.empty(0), dim)
    keys = sorted(counts)
    indices = np.array(keys, dtype=np.int64)
    values = np.array([counts[k] for k in keys], dtype=np.float64)
    return HashedVector(indices, values, dim)


def merge_vectors(vectors: list[HashedVector]) -> HashedVector:
    """Sum several sparse vectors (all must share the same dimension).

    Used by the URL_CONT feature set, which concatenates (sums, in
    hashed space) URL, anchor-text, DOM-path and surrounding-text bags.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    dim = vectors[0].dim
    counts: dict[int, float] = {}
    for vector in vectors:
        if vector.dim != dim:
            raise ValueError("dimension mismatch")
        for index, value in zip(vector.indices.tolist(), vector.values.tolist()):
            counts[index] = counts.get(index, 0.0) + value
    indices = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    return HashedVector(indices, values, dim)
