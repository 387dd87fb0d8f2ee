"""Hashed character n-gram bag-of-words features.

The URL classifier (Sec. 3.3) encodes a URL as a bag of character
2-grams over "usual ASCII characters".  We hash n-grams into a fixed
dimension so the model's weight vector never needs resizing as new
n-grams appear — the standard hashing trick for online learning.
Vectors are sparse: parallel ``indices``/``values`` arrays.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from itertools import repeat

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


@functools.lru_cache(maxsize=None)
def _bigram_table(seed: int, dim: int) -> np.ndarray:
    """The index of every ASCII 2-gram under ``(seed, dim)``, built once
    per process: entry ``[a, b]`` is
    ``crc32(bytes((a, b)), crc32(f"{seed}:")) % dim`` (128 KiB)."""
    crc32 = zlib.crc32
    prefix = crc32(f"{seed}:".encode("utf-8"))
    entries = (crc32(bytes((a, b)), prefix) % dim for a in range(128) for b in range(128))
    return np.fromiter(entries, dtype=np.int64, count=128 * 128).reshape(128, 128)


def hashed_bow(
    text: str, n: int = 2, dim: int = DEFAULT_DIM, seed: int = 0
) -> HashedVector:
    """Hash the character n-grams of ``text`` into a sparse count vector.

    An n-gram's index is ``crc32(f"{seed}:{token}") % dim``: crc32 is
    fast, deterministic across processes, and good enough for feature
    hashing.  The 2-grams of ASCII text (every URL the classifier sees)
    are looked up in the ``(seed, dim)`` :func:`_bigram_table`.  Other
    n-grams continue the CRC of the ``"{seed}:"`` prefix, computed once,
    which gives the same value; ASCII text is encoded once and its
    n-grams are CRC'd as byte slices, one byte per character.
    """
    if n == 2 and len(text) >= 2 and text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        found = _bigram_table(seed, dim)[codes[:-1], codes[1:]]
        found.sort()
        # where each run of equal indices starts, and the end of the last
        size = found.shape[0]
        starts = np.empty(size + 1, dtype=bool)
        starts[0] = starts[size] = True
        np.not_equal(found[1:], found[:-1], out=starts[1:size])
        edges = starts.nonzero()[0]
        run_lengths = (edges[1:] - edges[:-1]).astype(np.float64)
        return HashedVector(found[edges[:-1]], run_lengths, dim)
    crc32 = zlib.crc32
    prefix = crc32(f"{seed}:".encode("utf-8"))
    if len(text) >= n and text.isascii():
        data = text.encode("ascii")
        tokens = [data[i : i + n] for i in range(len(data) - n + 1)]
    else:
        tokens = [token.encode("utf-8") for token in char_ngrams(text, n)]
    hashes = sorted([h % dim for h in map(crc32, tokens, repeat(prefix))])
    indices: list[int] = []
    counts: list[float] = []
    last = -1
    for index in hashes:
        if index == last:
            counts[-1] += 1.0
        else:
            indices.append(index)
            counts.append(1.0)
            last = index
    return HashedVector(
        np.array(indices, dtype=np.int64), np.array(counts, dtype=np.float64), dim
    )


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
