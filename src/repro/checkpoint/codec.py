"""Canonical serialization primitives for checkpoint payloads.

Checkpoints follow the same byte-discipline as the campaign report
(``campaign/merge.py``): canonical JSON (sorted keys, no whitespace,
``allow_nan=False``) hashed with SHA-256, no wall clock, no absolute
paths.  Two invariants keep payloads digest-stable:

* **No int-keyed dicts.**  JSON silently stringifies non-string keys;
  ordered associations (bandit arms, frontier pools, benefit sums) are
  encoded as lists of pairs so insertion order — which fixes
  float-summation order after restore — survives the round trip.
* **Exact numerics.**  ``random.Random`` states round-trip as plain
  integer lists; numpy arrays round-trip via dtype + shape + base64 of
  their contiguous bytes, bit-exact — or, when that is smaller, of only
  the entries whose bit pattern is non-zero, plus their flat indices.

A :class:`Log` marks a list that only ever grows: it encodes as a plain
list, and :class:`~repro.checkpoint.store.CheckpointStore` journals it
instead of rewriting it whole at every save.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

#: bump when the payload layout changes incompatibly; loaders reject
#: checkpoints written under a different schema instead of guessing
SCHEMA_VERSION = 4

#: unsigned view of each itemsize a sparse array encoding handles
_BIT_PATTERN = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
#: ``str(dtype)`` of the numeric dtypes; numpy builds it in Python on
#: every call, which dominates encoding a small array
_DTYPE_NAMES = {
    dtype: str(dtype)
    for dtype in map(
        np.dtype, "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
    )
}


class Log(list):
    """A payload list that a later snapshot of the same crawl extends.

    The promise: the next snapshot's list at the same place starts with
    this one.  The codec encodes a ``Log`` as a plain list, so digests
    and round trips do not see it; the store uses it to append only the
    new tail to a journal.  The store checks the promise at every save
    and rewrites the whole list when it does not hold.
    """

    __slots__ = ()


def canonical_json(payload: object) -> str:
    """The one JSON form a payload has: sorted keys, compact separators,
    NaN/Infinity rejected (fail loud rather than emit non-JSON)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def payload_digest(payload: object) -> str:
    """SHA-256 over the canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _b64_length(n_bytes: int) -> int:
    return 4 * ((n_bytes + 2) // 3)


def encode_array(array: np.ndarray) -> dict:
    """Bit-exact numpy array encoding: dtype + shape + base64 bytes.

    When it is smaller, only the entries whose bit pattern is non-zero
    are stored, with their flat indices (``-0.0`` and NaN payloads are
    non-zero bit patterns, so they survive).  Dtypes whose itemsize is
    not 1, 2, 4 or 8 bytes are always dense.
    """
    contiguous = np.asarray(array, order="C")  # keeps 0-d arrays 0-d
    dtype = contiguous.dtype
    encoded = {
        "dtype": _DTYPE_NAMES.get(dtype) or str(dtype),
        "shape": list(contiguous.shape),
    }
    bits = _BIT_PATTERN.get(dtype.itemsize)
    if bits is not None and not dtype.hasobject:
        flat = contiguous.reshape(-1).view(bits)
        n_nonzero = int(np.count_nonzero(flat))
        sparse_data = _b64_length(n_nonzero * dtype.itemsize)
        dense_data = _b64_length(flat.nbytes)
        # lower bound of the sparse form: its data, brackets and commas
        if sparse_data + n_nonzero + 1 < dense_data:
            index = np.flatnonzero(flat)
            index_list = index.tolist()
            # the index list plus its key: '"index":' and a comma
            if sparse_data + len(canonical_json(index_list)) + 9 < dense_data:
                encoded["index"] = index_list
                values = flat[index].tobytes()
                encoded["data"] = base64.b64encode(values).decode("ascii")
                return encoded
    encoded["data"] = base64.b64encode(contiguous.tobytes()).decode("ascii")
    return encoded


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (either form); returns a fresh
    writable array, bit for bit."""
    dtype = np.dtype(payload["dtype"])
    shape = tuple(payload["shape"])
    raw = base64.b64decode(payload["data"].encode("ascii"))
    if "index" not in payload:
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    bits = _BIT_PATTERN[dtype.itemsize]
    array = np.zeros(shape, dtype=dtype)
    flat = array.reshape(-1).view(bits)
    flat[np.asarray(payload["index"], dtype=np.intp)] = np.frombuffer(raw, dtype=bits)
    return array


def encode_rng_state(rng) -> list:
    """``random.Random.getstate()`` as a JSON-safe nested list.

    The state is ``(version, tuple_of_ints, gauss_next)``; both layers
    become lists.  The function never touches the generator's stream —
    encoding is observation only.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def decode_rng_state(payload: list) -> tuple:
    """The tuple ``random.Random.setstate`` expects, rebuilt from
    :func:`encode_rng_state` output.  Callers apply it to an *existing*
    seeded generator — restore never constructs new RNGs."""
    version, internal, gauss_next = payload
    return (version, tuple(internal), gauss_next)
