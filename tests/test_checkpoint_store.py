"""Atomicity and fallback contract of :class:`repro.checkpoint.CheckpointStore`.

docs/checkpoint.md: the manifest is written last, torn writes are
detected via missing-manifest / digest mismatch, and the previous
checkpoint wins.  If checkpoints exist but none validates the store
raises instead of silently starting fresh.
"""

import json

import pytest

from repro.checkpoint import (
    MANIFEST_FIELDS,
    SCHEMA_VERSION,
    CheckpointStore,
    CorruptCheckpointError,
    canonical_json,
    payload_digest,
)


def _payload(step, kind="sb-crawl"):
    return {"kind": kind, "step": step, "state": {"visited": list(range(step))}}


def test_write_then_read_latest_round_trips(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.write_checkpoint(_payload(3), step=3)
    assert path.is_dir()
    loaded = store.read_latest()
    assert loaded is not None
    assert loaded.payload == _payload(3)
    assert loaded.step == 3
    assert loaded.corrupt_skipped == ()


def test_sequence_numbers_increase_and_latest_wins(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    store.write_checkpoint(_payload(2), step=2)
    loaded = store.read_latest()
    assert loaded.step == 2
    assert loaded.seq > 1


def test_manifest_carries_the_documented_fields(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.write_checkpoint(_payload(5), step=5)
    manifest = json.loads((path / "manifest.json").read_text())
    assert set(manifest) == set(MANIFEST_FIELDS)
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["step"] == 5
    assert manifest["digest"] == payload_digest(_payload(5))


def test_digest_of_the_written_text_is_the_payload_digest(tmp_path):
    """The writer hashes the state text it built instead of encoding
    the payload again; the manifest must not notice."""
    import numpy as np

    from repro.checkpoint import encode_array

    payload = {
        "kind": "sb-crawl",
        "text": "é \u2028 \"quoted\" </script>",
        "floats": [0.1, 1e-300, -2.5],
        "nested": {"b": [1, {"a": None}], "a": True},
        "array": encode_array(np.arange(6, dtype=np.float64).reshape(2, 3)),
    }
    store = CheckpointStore(tmp_path)
    path = store.write_checkpoint(payload, step=7)
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["digest"] == payload_digest(payload)
    assert (path / "state.json").read_text() == canonical_json(payload) + "\n"
    loaded = store.read_latest()
    assert loaded.payload == payload
    assert loaded.corrupt_skipped == ()


def test_empty_store_reads_none(tmp_path):
    assert CheckpointStore(tmp_path).read_latest() is None
    assert CheckpointStore(tmp_path / "never-created").read_latest() is None


def test_torn_state_falls_back_to_previous_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    # simulate a torn write: state.json truncated mid-payload
    state_path = newest / "state.json"
    state_path.write_text(state_path.read_text()[: 10])
    loaded = store.read_latest()
    assert loaded.step == 1                     # the previous checkpoint wins
    assert newest.name in loaded.corrupt_skipped


def test_missing_manifest_means_incomplete_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    (newest / "manifest.json").unlink()
    loaded = store.read_latest()
    assert loaded.step == 1
    assert newest.name in loaded.corrupt_skipped


def test_truncated_manifest_is_detected(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    manifest_path = newest / "manifest.json"
    manifest_path.write_text(manifest_path.read_text()[:-8])
    assert store.read_latest().step == 1


def test_digest_mismatch_is_detected(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    tampered = _payload(2)
    tampered["state"]["visited"].append(99)
    (newest / "state.json").write_text(canonical_json(tampered))
    assert store.read_latest().step == 1


def test_all_corrupt_raises_instead_of_starting_fresh(tmp_path):
    store = CheckpointStore(tmp_path)
    only = store.write_checkpoint(_payload(1), step=1)
    (only / "state.json").write_text("{not json")
    with pytest.raises(CorruptCheckpointError):
        store.read_latest()


def test_schema_version_drift_is_rejected(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    manifest_path = newest / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    assert store.read_latest().step == 1        # drifted entry is skipped


def test_kind_filter_selects_matching_payloads(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1, kind="shard-progress"), step=1)
    store.write_checkpoint(_payload(2, kind="sb-crawl"), step=2)
    assert store.read_latest(kind="shard-progress").step == 1
    assert store.read_latest(kind="sb-crawl").step == 2
    assert store.read_latest(kind="no-such-kind") is None


def test_read_all_returns_ascending_and_skips_corrupt(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    middle = store.write_checkpoint(_payload(2), step=2)
    store.write_checkpoint(_payload(3), step=3)
    (middle / "manifest.json").unlink()
    loaded = store.read_all()
    assert [entry.step for entry in loaded] == [1, 3]


def test_prune_old_keeps_the_newest_generations(tmp_path):
    store = CheckpointStore(tmp_path)
    for step in range(1, 6):
        store.write_checkpoint(_payload(step), step=step)
    store.prune_old(keep=2)
    loaded = store.read_all()
    assert [entry.step for entry in loaded] == [4, 5]
    assert store.read_latest().step == 5


def test_store_relocates_freely(tmp_path):
    """Payloads hold no absolute paths: moving the directory must not
    invalidate the digest."""
    import shutil

    original = tmp_path / "a"
    store = CheckpointStore(original)
    store.write_checkpoint(_payload(7), step=7)
    moved = tmp_path / "b"
    shutil.move(str(original), str(moved))
    assert CheckpointStore(moved).read_latest().payload == _payload(7)
