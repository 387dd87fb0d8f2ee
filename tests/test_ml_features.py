"""Tests for hashed n-gram features."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.features import _bigram_table, char_ngrams, hashed_bow, merge_vectors


def test_char_ngrams_basic():
    assert char_ngrams("abc", 2) == ["ab", "bc"]
    assert char_ngrams("abcd", 3) == ["abc", "bcd"]


def test_char_ngrams_short_text():
    assert char_ngrams("a", 2) == ["a"]
    assert char_ngrams("", 2) == []


def test_char_ngrams_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        char_ngrams("abc", 0)


def test_hashed_bow_counts():
    vector = hashed_bow("aaa", n=2, dim=64)
    # "aaa" has two identical 2-grams "aa" -> one bucket with count 2
    assert vector.nnz == 1
    assert vector.values[0] == 2.0


def test_hashed_bow_deterministic():
    a = hashed_bow("https://x.example/file.csv", dim=256)
    b = hashed_bow("https://x.example/file.csv", dim=256)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)


def test_hashed_bow_seed_changes_hashing():
    a = hashed_bow("some text here", dim=4096, seed=1)
    b = hashed_bow("some text here", dim=4096, seed=2)
    assert not np.array_equal(a.indices, b.indices)


def test_indices_sorted_and_in_range():
    vector = hashed_bow("the quick brown fox", dim=128)
    assert list(vector.indices) == sorted(set(vector.indices))
    assert vector.indices.min() >= 0
    assert vector.indices.max() < 128


def _reference_bow(text, n, dim, seed):
    """The hashing formula itself, one full crc32 per n-gram."""
    counts = {}
    for token in char_ngrams(text, n):
        index = zlib.crc32(f"{seed}:{token}".encode("utf-8")) % dim
        counts[index] = counts.get(index, 0.0) + 1.0
    keys = sorted(counts)
    return keys, [counts[k] for k in keys]


@given(
    st.text(max_size=60),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 97, 1 << 14]),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=200)
def test_hashed_bow_matches_full_crc_per_ngram(text, n, dim, seed):
    """Continuing the CRC of the seed prefix hashes every n-gram exactly
    as crc32(f"{seed}:{token}"), on any unicode text."""
    vector = hashed_bow(text, n=n, dim=dim, seed=seed)
    indices, values = _reference_bow(text, n, dim, seed)
    assert vector.indices.dtype == np.int64
    assert vector.values.dtype == np.float64
    assert vector.indices.tolist() == indices
    assert vector.values.tolist() == values
    assert vector.dim == dim


@given(
    st.one_of(
        st.just(""),
        st.characters(max_codepoint=127),
        st.text(alphabet=st.characters(max_codepoint=127), max_size=120),
    ),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 97, 1 << 14]),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=300)
def test_hashed_bow_ascii_path_matches_char_ngrams_path(text, n, dim, seed):
    """ASCII text is hashed from the 2-gram table (n = 2) or from byte
    slices of one encoding (other n); the result equals the per-token
    char_ngrams formula bit for bit, including texts shorter than n
    (which take the char_ngrams path)."""
    assert text.isascii()
    vector = hashed_bow(text, n=n, dim=dim, seed=seed)
    indices, values = _reference_bow(text, n, dim, seed)
    assert vector.indices.dtype == np.int64
    assert vector.values.dtype == np.float64
    assert vector.indices.tolist() == indices
    assert vector.values.tolist() == values


@given(
    st.text(alphabet=st.characters(max_codepoint=127), min_size=2, max_size=120),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([97, 1000, 1 << 14, 65536, 70001, 1 << 17]),
)
@settings(max_examples=300)
def test_hashed_bow_bigram_table_matches_full_crc_per_ngram(text, seed, dim):
    """The 2-grams of ASCII text are looked up in the (seed, dim) table;
    the vector equals one full crc32 per 2-gram bit for bit, for the
    classifier's seeds 1-4, dims that are not powers of two and dims
    above 65536."""
    vector = hashed_bow(text, n=2, dim=dim, seed=seed)
    indices, values = _reference_bow(text, 2, dim, seed)
    assert vector.indices.dtype == np.int64
    assert vector.values.dtype == np.float64
    assert vector.indices.tolist() == indices
    assert vector.values.tolist() == values
    assert vector.dim == dim


def test_bigram_table_built_once_per_seed_and_dim(monkeypatch):
    """One table per (seed, dim) for the life of the process: 128 x 128
    CRCs to build it, then no CRC at all per 2-gram."""
    crc_calls = []
    real_crc32 = zlib.crc32

    def counting_crc32(data, value=0):
        crc_calls.append(data)
        return real_crc32(data, value)

    monkeypatch.setattr(zlib, "crc32", counting_crc32)
    _bigram_table.cache_clear()
    for _ in range(3):
        for seed in (1, 2):
            hashed_bow("https://x.example/a.csv", dim=999, seed=seed)
    assert _bigram_table.cache_info().misses == 2
    assert len(crc_calls) == 2 * (1 + 128 * 128)
    table = _bigram_table(1, 999)
    assert table is _bigram_table(1, 999)
    assert table.dtype == np.int64
    assert table.nbytes <= 128 * 1024


def test_merge_vectors_sums_counts():
    a = hashed_bow("ab", dim=64)
    merged = merge_vectors([a, a])
    assert np.array_equal(merged.indices, a.indices)
    assert np.array_equal(merged.values, a.values * 2)


def test_merge_vectors_dim_mismatch():
    with pytest.raises(ValueError):
        merge_vectors([hashed_bow("x", dim=32), hashed_bow("x", dim=64)])


def test_merge_vectors_empty():
    with pytest.raises(ValueError):
        merge_vectors([])


@given(st.text(alphabet="abcdef:/.", max_size=40), st.text(alphabet="abcdef:/.", max_size=40))
@settings(max_examples=50)
def test_merge_commutative(t1, t2):
    a, b = hashed_bow(t1, dim=128), hashed_bow(t2, dim=128)
    ab = merge_vectors([a, b])
    ba = merge_vectors([b, a])
    assert np.array_equal(ab.indices, ba.indices)
    assert np.array_equal(ab.values, ba.values)


def test_l2_norm_and_scale():
    vector = hashed_bow("ab", dim=64)
    assert vector.l2_norm() == 1.0
    assert vector.scale(3.0).l2_norm() == 3.0
