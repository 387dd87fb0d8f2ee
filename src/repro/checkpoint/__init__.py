"""Durable crawl state: versioned checkpoint/resume (docs/checkpoint.md).

The package has three small layers:

* :mod:`repro.checkpoint.codec` — canonical-JSON payloads, bit-exact
  (dense or sparse) array and RNG-state round-trips, SHA-256 digests,
  and the :class:`Log` marker for lists that only grow;
* :mod:`repro.checkpoint.store` — atomic on-disk checkpoints with a
  manifest, a journal for the Logs, torn-write detection,
  previous-checkpoint fallback;
* :mod:`repro.checkpoint.controller` — the per-iteration tick that
  saves periodically and converts SIGINT/SIGTERM into a final
  checkpoint plus :class:`CrawlInterrupted`.

Components advertise participation via the structural
:class:`Checkpointable` protocol (``snapshot_state`` /
``restore_state``); the guarantee — stop at step *k*, resume, and the
crawl digest, event stream, ledger and merged campaign report are
byte-identical to an uninterrupted run — is enforced by
``tests/test_checkpoint_resume.py`` and CI's resume-equivalence job.
"""

from repro.checkpoint.codec import (
    SCHEMA_VERSION,
    Log,
    canonical_json,
    decode_array,
    decode_rng_state,
    encode_array,
    encode_rng_state,
    payload_digest,
)
from repro.checkpoint.controller import (
    CrawlCheckpointer,
    CrawlInterrupted,
    ShutdownFlag,
    install_signal_handlers,
)
from repro.checkpoint.protocol import Checkpointable
from repro.checkpoint.store import (
    MANIFEST_FIELDS,
    CheckpointError,
    CheckpointStore,
    CorruptCheckpointError,
    LoadedCheckpoint,
)

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_FIELDS",
    "Checkpointable",
    "CheckpointError",
    "CheckpointStore",
    "CorruptCheckpointError",
    "CrawlCheckpointer",
    "CrawlInterrupted",
    "LoadedCheckpoint",
    "Log",
    "ShutdownFlag",
    "canonical_json",
    "decode_array",
    "decode_rng_state",
    "encode_array",
    "encode_rng_state",
    "install_signal_handlers",
    "payload_digest",
]
