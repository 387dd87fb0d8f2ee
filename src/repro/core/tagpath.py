"""Tag-path vectorisation (Sec. 3.2, Fig. 3).

A tag path is tokenised into its DOM segments, extended with BOS/EOS
markers, and represented as a bag of *n-grams of segments* — n-grams
preserve segment order, which the paper shows is significant (Table 4,
n = 1 vs n ≥ 2).  The n-gram vocabulary grows during the crawl, so raw
BoW vectors have varying length d; each is projected into a fixed
dimension D = 2^m with the hash

    h(x) = floor(((Π·x) mod 2^w) / 2^(w-m)),   Π a large prime, w > m.

Colliding vocabulary positions are resolved by *averaging*: the value of
output bucket j is the mean of p[i] over **all** current vocabulary
positions i with h(i) = j (zero entries included), exactly as in the
paper's worked example (Fig. 3: p_D[3] = (p[4]+p[8]+p[9])/3).
"""

from __future__ import annotations

import numpy as np

#: Beginning/end-of-stream markers (Fig. 3).
BOS = "<BOS>"
EOS = "<EOS>"

#: Default hash parameters (Π is the prime of the paper's example).
DEFAULT_PRIME = 766_245_317
DEFAULT_W = 15
DEFAULT_M = 8


def projection_hash(x: int, m: int = DEFAULT_M, w: int = DEFAULT_W,
                    prime: int = DEFAULT_PRIME) -> int:
    """The paper's position hash: maps any integer to [0, 2^m)."""
    if w <= m:
        raise ValueError("hash requires w > m")
    return ((prime * x) % (1 << w)) >> (w - m)


def tokenize_tag_path(tag_path: str) -> list[str]:
    """Split a canonical tag path into its segment tokens, with BOS/EOS."""
    segments = [s for s in tag_path.split(" ") if s]
    return [BOS, *segments, EOS]


class TagPathVectorizer:
    """Online n-gram vocabulary + fixed-dimension hash projection.

    The vocabulary is built dynamically as tag paths are observed; the
    bucket structure of the projection (which input positions share an
    output bucket, and each bucket's current size) is maintained
    incrementally so projecting one path costs O(nnz).

    Featurization (tokenize → n-grams → vocabulary positions → output
    buckets) is memoized per tag-path string: a crawl sees the same
    template paths over and over, and a path whose n-grams are all known
    cannot grow the vocabulary, so its (bucket, count) pairs never
    change.  Only the final bucket *means* depend on the current
    vocabulary size, and those are recomputed on every projection —
    cached and uncached paths produce bit-identical vectors.
    """

    def __init__(
        self,
        n: int = 2,
        m: int = DEFAULT_M,
        w: int = DEFAULT_W,
        prime: int = DEFAULT_PRIME,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.m = m
        self.w = w
        self.prime = prime
        self.dim = 1 << m
        self._vocabulary: dict[tuple[str, ...], int] = {}
        #: h(i) for every vocabulary position i, in position order.
        self._position_bucket: list[int] = []
        #: number of vocabulary positions mapping to each output bucket.
        self._bucket_sizes = np.zeros(self.dim, dtype=np.float64)
        #: per tag path: (bucket indices, counts) in first-occurrence
        #: order — the memoized featurization described above.
        self._path_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- vocabulary ------------------------------------------------------

    @property
    def vocabulary_size(self) -> int:
        return len(self._vocabulary)

    def _ngrams(self, tag_path: str) -> list[tuple[str, ...]]:
        tokens = tokenize_tag_path(tag_path)
        if self.n == 1:
            return [(t,) for t in tokens]
        if len(tokens) < self.n:
            return [tuple(tokens)]
        return [tuple(tokens[i : i + self.n]) for i in range(len(tokens) - self.n + 1)]

    def _position(self, ngram: tuple[str, ...]) -> int:
        position = self._vocabulary.get(ngram)
        if position is None:
            position = len(self._vocabulary)
            self._vocabulary[ngram] = position
            bucket = projection_hash(position, self.m, self.w, self.prime)
            self._position_bucket.append(bucket)
            self._bucket_sizes[bucket] += 1.0
        return position

    # -- projection ----------------------------------------------------------

    def _featurize(self, tag_path: str) -> tuple[np.ndarray, np.ndarray]:
        """Memoized (buckets, counts) of one tag path, growing the
        vocabulary on a cache miss.  Bucket order is the first-occurrence
        order of the path's n-grams, so the float accumulation order of
        :meth:`project` is identical with and without the cache."""
        cached = self._path_cache.get(tag_path)
        if cached is not None:
            return cached
        counts: dict[int, float] = {}
        for ngram in self._ngrams(tag_path):
            position = self._position(ngram)
            counts[position] = counts.get(position, 0.0) + 1.0
        position_bucket = self._position_bucket
        buckets = np.fromiter(
            (position_bucket[p] for p in counts), dtype=np.intp, count=len(counts)
        )
        values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        cached = (buckets, values)
        self._path_cache[tag_path] = cached
        return cached

    def project(self, tag_path: str) -> np.ndarray:
        """Vectorise one tag path into the fixed D-dimensional space.

        New n-grams extend the vocabulary first (as in Fig. 3, where the
        vocabulary grows from d_k = 5 to d_{k+1} = 11 before the BoW is
        computed), then bucket means are formed over the *current*
        vocabulary size.
        """
        buckets, values = self._featurize(tag_path)
        # bincount accumulates the weights sequentially, so colliding
        # buckets sum in the same order as the pre-vectorized loop did.
        projected = np.bincount(buckets, weights=values, minlength=self.dim)
        occupied = self._bucket_sizes > 0
        projected[occupied] /= self._bucket_sizes[occupied]
        return projected
