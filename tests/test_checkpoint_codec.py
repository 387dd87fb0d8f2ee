"""Bit-exact array encoding: dense and sparse forms (docs/checkpoint.md).

``decode_array(encode_array(a))`` must reproduce ``a`` bit for bit —
dtype, shape and every byte, ``-0.0`` and NaN payloads included —
through the canonical JSON a checkpoint store writes, and must return a
fresh writable array.  The sparse form is only used when it is smaller.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.checkpoint import Log, canonical_json, decode_array, encode_array


def _roundtrip(array):
    encoded = encode_array(array)
    decoded = decode_array(json.loads(canonical_json(encoded)))
    expected = np.asarray(array)
    assert decoded.dtype == expected.dtype
    assert decoded.shape == expected.shape
    assert decoded.tobytes() == expected.tobytes()
    assert decoded.flags.writeable and decoded.flags.c_contiguous
    assert not np.shares_memory(decoded, array)
    return encoded


def _nan_with_payload(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, _nan_with_payload(0x7FF8_0000_0000_0123),
     _nan_with_payload(0xFFF0_0000_0000_0001), 5e-324]
)


@pytest.mark.parametrize("dtype", [
    "bool", "int8", "uint8", "int16", "uint16", "int32", "uint32", "int64",
    "uint64", "float16", "float32", "float64", "complex64", "complex128",
    ">f8", "<i4", "<U3", "datetime64[s]",
])
@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (7,), (3, 4, 2)])
def test_all_zero_and_dense_arrays_round_trip(dtype, shape):
    zeros = np.zeros(shape, dtype=dtype)
    _roundtrip(zeros)
    rng = np.random.default_rng(len(shape))
    dense = np.asarray(rng.integers(1, 100, size=shape)).astype(dtype)
    _roundtrip(dense)


def test_special_floats_survive_by_bit_pattern():
    sparse = np.zeros(4096)
    sparse[[3, 70, 1000, 2000, 3000, 3500, 4000, 4095]] = SPECIAL
    encoded = _roundtrip(sparse)
    assert "index" in encoded
    # 0.0 has an all-zero bit pattern; -0.0 does not
    assert 3 not in encoded["index"] and 70 in encoded["index"]
    for dtype in ("float32", "float16"):
        with np.errstate(invalid="ignore"):       # narrowing the NaN payloads
            _roundtrip(SPECIAL.astype(dtype))
    _roundtrip(SPECIAL.reshape(2, 4).T)           # Fortran-ordered input
    _roundtrip(SPECIAL[::3])                      # strided input


def test_sparse_form_is_used_only_when_smaller():
    weights = np.zeros(16_384)
    weights[np.arange(0, 16_384, 61)] = 0.25
    sparse = _roundtrip(weights)
    dense = {"dtype": "float64", "shape": [16_384],
             "data": encode_array(np.ones(16_384))["data"]}
    assert "index" in sparse
    assert len(canonical_json(sparse)) < len(canonical_json(dense)) / 10
    assert "index" not in _roundtrip(np.arange(1, 65, dtype=np.float64))
    assert "index" not in _roundtrip(np.zeros(0))
    assert "index" not in _roundtrip(np.zeros(3, dtype="complex128"))  # itemsize 16


def test_encoding_a_log_is_encoding_a_list():
    payload = {"a": Log(["x", 1]), "b": [Log([Log([2])])]}
    assert canonical_json(payload) == canonical_json({"a": ["x", 1], "b": [[[2]]]})


_DTYPES = st.sampled_from(
    [np.dtype(name) for name in ("bool", "int8", "uint16", "int32", "uint64",
                                 "float16", "float32", "float64", "complex64")]
)


@settings(max_examples=150, deadline=None)
@given(
    array=_DTYPES.flatmap(lambda dtype: hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
        # mostly zeros, so both forms occur
        elements=hnp.from_dtype(dtype, allow_nan=True, allow_infinity=True),
        fill=st.just(dtype.type(0)),
    ))
)
def test_arrays_round_trip_bit_for_bit(array):
    encoded = _roundtrip(array)
    if "index" in encoded:
        dense = {"dtype": encoded["dtype"], "shape": encoded["shape"],
                 "data": encode_array(np.ones_like(array))["data"]}
        assert len(canonical_json(encoded)) < len(canonical_json(dense))
