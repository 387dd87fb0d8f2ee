"""Tests for tag-path vectorisation, including the paper's Fig. 3 example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagpath import (
    BOS,
    EOS,
    TagPathVectorizer,
    projection_hash,
    tokenize_tag_path,
)


def test_paper_figure3_hash_values():
    """Fig. 3: D = 4 (m = 2), w = 11, Π = 766 245 317; h(2) = 1 and
    h(4) = h(8) = h(9) = 3."""
    m, w, prime = 2, 11, 766_245_317
    assert projection_hash(2, m, w, prime) == 1
    assert projection_hash(4, m, w, prime) == 3
    assert projection_hash(8, m, w, prime) == 3
    assert projection_hash(9, m, w, prime) == 3


def test_hash_range():
    for x in range(200):
        assert 0 <= projection_hash(x, m=4, w=11) < 16


def test_hash_requires_w_greater_than_m():
    with pytest.raises(ValueError):
        projection_hash(1, m=8, w=8)


def test_tokenize_includes_bos_eos():
    tokens = tokenize_tag_path("html body div a")
    assert tokens[0] == BOS
    assert tokens[-1] == EOS
    assert tokens[1:-1] == ["html", "body", "div", "a"]


def test_vocabulary_grows_dynamically():
    vectorizer = TagPathVectorizer(n=2, m=4)
    assert vectorizer.vocabulary_size == 0
    vectorizer.project("html body a")
    first = vectorizer.vocabulary_size
    assert first > 0
    vectorizer.project("html body a")
    assert vectorizer.vocabulary_size == first  # no new n-grams
    vectorizer.project("html body div ul li a")
    assert vectorizer.vocabulary_size > first


def test_projection_dimension():
    vectorizer = TagPathVectorizer(n=2, m=5)
    vector = vectorizer.project("html body div a")
    assert vector.shape == (32,)


def test_collision_buckets_use_means():
    """Bucket values are means over ALL positions mapped to the bucket
    (zeros included), per the paper's worked example."""
    vectorizer = TagPathVectorizer(n=1, m=2, w=11)
    vector = vectorizer.project("html body div a")
    # Recompute by hand from internals.
    d = vectorizer.vocabulary_size
    counts = {}
    for token in tokenize_tag_path("html body div a"):
        position = vectorizer._vocabulary[(token,)]
        counts[position] = counts.get(position, 0.0) + 1.0
    expected = np.zeros(4)
    bucket_size = np.zeros(4)
    for position in range(d):
        bucket = vectorizer._position_bucket[position]
        bucket_size[bucket] += 1
        expected[bucket] += counts.get(position, 0.0)
    occupied = bucket_size > 0
    expected[occupied] /= bucket_size[occupied]
    assert np.allclose(vector, expected)


def test_same_path_similar_direction_over_time():
    vectorizer = TagPathVectorizer(n=2, m=8)
    path = "html body div.content ul.items li a"
    v1 = vectorizer.project(path)
    for i in range(20):
        vectorizer.project(f"html body div.other{i} p a")
    v2 = vectorizer.project(path)
    cosine = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
    assert cosine > 0.8


def test_different_paths_less_similar_than_identical():
    vectorizer = TagPathVectorizer(n=2, m=8)
    a1 = vectorizer.project("html body div.datasets ul li a")
    a2 = vectorizer.project("html body div.datasets ul li a")
    b = vectorizer.project("html body footer div.links ul li a")

    def cos(x, y):
        return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

    assert cos(a1, a2) > cos(a1, b)


def test_n1_ignores_order():
    vectorizer = TagPathVectorizer(n=1, m=8)
    v1 = vectorizer.project("html body div a")
    v2 = vectorizer.project("html div body a")
    assert np.allclose(v1, v2)


def test_n2_respects_order():
    vectorizer = TagPathVectorizer(n=2, m=8)
    v1 = vectorizer.project("html body div a")
    v2 = vectorizer.project("html div body a")
    assert not np.allclose(v1, v2)


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        TagPathVectorizer(n=0)


@given(st.lists(st.sampled_from(["div", "ul", "li", "a", "p", "span"]),
                min_size=1, max_size=10))
@settings(max_examples=60)
def test_projection_always_finite_nonnegative(segments):
    vectorizer = TagPathVectorizer(n=2, m=6)
    vector = vectorizer.project(" ".join(["html", "body"] + segments))
    assert np.isfinite(vector).all()
    assert (vector >= 0).all()
    assert vector.sum() > 0


def test_memoized_projection_bit_identical_to_fresh():
    """The per-path featurization cache must not change a single bit:
    a cached re-projection equals what a fresh vectorizer (same history)
    computes, even after the vocabulary grew in between."""
    paths = [
        "html body div.content a",
        "html body ul li a",
        "html body div.content a",          # cache hit
        "html body div.content span.new a",  # grows the vocabulary
        "html body div.content a",          # hit again, larger vocab
    ]
    cached = TagPathVectorizer()
    replay = TagPathVectorizer()
    for replay_path in paths:
        replay.project(replay_path)
    for index, path in enumerate(paths):
        vector = cached.project(path)
        if index == len(paths) - 1:
            reference = replay.project(path)
            assert vector.tobytes() == reference.tobytes()


class _LoopTagPathVectorizer(TagPathVectorizer):
    """Oracle: the per-path Python loop that ``project``'s memo and
    ``np.bincount`` replaced.  It accumulates each bucket in the
    first-occurrence order of the path's n-grams, as the fast path must."""

    def project(self, tag_path: str) -> np.ndarray:
        counts: dict[int, float] = {}
        for ngram in self._ngrams(tag_path):
            position = self._position(ngram)
            counts[position] = counts.get(position, 0.0) + 1.0
        projected = np.zeros(self.dim, dtype=np.float64)
        for position, count in counts.items():
            projected[self._position_bucket[position]] += count
        occupied = self._bucket_sizes > 0
        projected[occupied] /= self._bucket_sizes[occupied]
        return projected


_SEGMENTS = st.sampled_from(
    ["div", "ul", "li", "span", "td", "div.content", "ul.items", "a"])
#: a few layout templates, revisited often (memo hits), plus unique-id
#: noise paths that keep the vocabulary growing
_TAG_PATH_STREAMS = st.lists(
    st.one_of(
        st.integers(0, 5).map(lambda i: f"html body div.t{i} ul li a"),
        st.lists(_SEGMENTS, max_size=8).map(
            lambda segments: " ".join(["html", "body", *segments, "a"])),
        st.integers(0, 10**6).map(lambda uid: f"html body div a#uid{uid}"),
    ),
    min_size=1,
    max_size=60,
)


@given(paths=_TAG_PATH_STREAMS, n=st.integers(1, 3), m=st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_projection_bit_identical_to_loop_oracle(paths, n, m):
    """Every projection of a stream that grows the vocabulary (and
    revisits paths whose featurization is memoized) equals the loop
    oracle's bit for bit; small ``m`` forces bucket collisions."""
    fast = TagPathVectorizer(n=n, m=m)
    oracle = _LoopTagPathVectorizer(n=n, m=m)
    for path in paths:
        assert fast.project(path).tobytes() == oracle.project(path).tobytes()
    assert fast.vocabulary_size == oracle.vocabulary_size
