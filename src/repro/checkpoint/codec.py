"""Canonical serialization primitives for checkpoint payloads.

Checkpoints follow the same byte-discipline as the campaign report
(``campaign/merge.py``): canonical JSON (sorted keys, no whitespace,
``allow_nan=False``) hashed with SHA-256, no wall clock, no absolute
paths.  Two invariants keep payloads digest-stable:

* **No int-keyed dicts.**  JSON silently stringifies non-string keys;
  ordered associations (bandit arms, frontier pools, HNSW nodes) are
  encoded as lists of pairs so insertion order — which fixes
  float-summation order after restore — survives the round trip.
* **Exact numerics.**  ``random.Random`` states round-trip as plain
  integer lists; numpy arrays round-trip via dtype + shape + base64 of
  their contiguous bytes, bit-exact.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

#: bump when the payload layout changes incompatibly; loaders reject
#: checkpoints written under a different schema instead of guessing
SCHEMA_VERSION = 1


def canonical_json(payload: object) -> str:
    """The one JSON form a payload has: sorted keys, compact separators,
    NaN/Infinity rejected (fail loud rather than emit non-JSON)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def payload_digest(payload: object) -> str:
    """SHA-256 over the canonical JSON form."""
    return text_digest(canonical_json(payload))


def text_digest(canonical_text: str) -> str:
    """:func:`payload_digest` of the payload whose canonical JSON form is
    ``canonical_text``, for a writer that already built it."""
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


def encode_array(array: np.ndarray) -> dict:
    """Bit-exact numpy array encoding: dtype + shape + base64 bytes."""
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`; returns a fresh writable array."""
    raw = base64.b64decode(payload["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


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
