"""Atomicity and fallback contract of :class:`repro.checkpoint.CheckpointStore`.

docs/checkpoint.md: the manifest is written last, torn writes are
detected via missing-manifest / digest mismatch, and the previous
checkpoint wins.  If checkpoints exist but none validates the store
raises instead of silently starting fresh.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    MANIFEST_FIELDS,
    SCHEMA_VERSION,
    CheckpointStore,
    CorruptCheckpointError,
    Log,
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


def test_kind_filter_on_a_fully_corrupt_store_raises(tmp_path):
    """A resume that asks for one kind must not mistake a store whose
    every checkpoint is torn for an empty one."""
    store = CheckpointStore(tmp_path)
    for step in (1, 2):
        path = store.write_checkpoint(_payload(step, kind="shard-progress"), step=step)
        state = path / "state.json"
        state.write_text(state.read_text()[:10])
    with pytest.raises(CorruptCheckpointError):
        store.read_latest(kind="shard-progress")
    with pytest.raises(CorruptCheckpointError):
        store.read_latest()


def test_kind_filter_passes_over_valid_checkpoints_of_other_kinds(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1, kind="shard-outcome"), step=1)
    torn = store.write_checkpoint(_payload(2, kind="shard-progress"), step=2)
    (torn / "manifest.json").unlink()
    assert store.read_latest(kind="shard-progress") is None


def test_state_file_must_be_the_exact_canonical_bytes(tmp_path):
    """Loads hash the bytes read: the same JSON re-spaced, or without
    its trailing newline, no longer validates."""
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_payload(1), step=1)
    newest = store.write_checkpoint(_payload(2), step=2)
    state = newest / "state.json"
    text = state.read_text()
    state.write_text(json.dumps(json.loads(text), sort_keys=True) + "\n")
    assert store.read_latest().step == 1
    state.write_text(text[:-1])
    assert store.read_latest().step == 1
    state.write_text(text)
    assert store.read_latest().step == 2


# -- the journal of Logs ---------------------------------------------------


def _crawl_payload(n, m=0):
    """A payload with Logs at three depths, of lengths n, n // 2 and m."""
    return {
        "kind": "sb-crawl",
        "components": {
            "crawl": {"seen": Log(f"u{i}" for i in range(n)),
                      "requeues": {"u1": 1}},
            "client": {"trace": {"records": Log([i, "GET"] for i in range(n // 2))}},
        },
        "top": Log(range(m)),
        "inline": [Log([1, 2])],
    }


def _journals(directory):
    return sorted(path.name for path in directory.glob("journal-*.jsonl"))


def test_logs_go_to_the_journal_and_come_back(tmp_path):
    store = CheckpointStore(tmp_path)
    first = store.write_checkpoint(_crawl_payload(4), step=1)
    second = store.write_checkpoint(_crawl_payload(9, 2), step=2)
    state = json.loads((second / "state.json").read_text())
    assert "seen" not in state["components"]["crawl"]
    assert state["inline"] == [[1, 2]]           # Logs inside lists stay inline
    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["digest"] == payload_digest(state)
    assert manifest["journal"]["name"] == "journal-00000001.jsonl"
    assert sorted(manifest["journal"]["lengths"]) == [
        [["components", "client", "trace", "records"], 4],
        [["components", "crawl", "seen"], 9],
        [["top"], 2],
    ]
    lines = (tmp_path / "journal-00000001.jsonl").read_text().splitlines()
    tails = {tuple(path): (start, items)
             for path, start, items in json.loads(lines[1])["tails"]}
    # only the new tails: seen grew from 4 to 9, records from 2 to 4
    assert tails[("components", "crawl", "seen")] == (4, ["u4", "u5", "u6", "u7", "u8"])
    assert tails[("components", "client", "trace", "records")][0] == 2
    assert store.read_latest().payload == _crawl_payload(9, 2)
    assert [entry.payload for entry in store.read_all()] == [
        _crawl_payload(4), _crawl_payload(9, 2)]
    assert first.name in {entry.path.name for entry in store.read_all()}


def test_a_log_that_breaks_its_promise_is_journalled_whole(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint({"log": Log([1, 2, 3])}, step=1)
    store.write_checkpoint({"log": Log([1, 9, 3, 4])}, step=2)
    store.write_checkpoint({"log": Log([1])}, step=3)
    lines = (tmp_path / "journal-00000001.jsonl").read_text().splitlines()
    starts = [json.loads(line)["tails"][0][1] for line in lines]
    assert starts == [0, 0, 0]
    assert store.read_latest().payload == {"log": [1]}


def test_a_log_extended_in_place_after_a_save_reads_back(tmp_path):
    store = CheckpointStore(tmp_path)
    log = Log([1, 2])
    store.write_checkpoint({"log": log}, step=1)
    log.append(3)
    store.write_checkpoint({"log": log}, step=2)
    assert store.read_latest().payload == {"log": [1, 2, 3]}
    assert [entry.payload for entry in store.read_all()] == [
        {"log": [1, 2]}, {"log": [1, 2, 3]}]


def test_a_new_store_object_starts_a_new_journal(tmp_path):
    CheckpointStore(tmp_path).write_checkpoint(_crawl_payload(3), step=1)
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_crawl_payload(5), step=2)
    store.write_checkpoint(_crawl_payload(6), step=3)
    assert _journals(tmp_path) == ["journal-00000001.jsonl", "journal-00000002.jsonl"]
    assert [entry.payload for entry in store.read_all()] == [
        _crawl_payload(3), _crawl_payload(5), _crawl_payload(6)]
    store.prune_old(keep=2)
    assert _journals(tmp_path) == ["journal-00000002.jsonl"]
    assert store.read_latest().payload == _crawl_payload(6)


def test_a_truncated_journal_tail_lets_the_previous_checkpoint_win(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_crawl_payload(3), step=1)
    newest = store.write_checkpoint(_crawl_payload(8), step=2)
    journal = tmp_path / "journal-00000001.jsonl"
    journal.write_bytes(journal.read_bytes()[:-5])
    loaded = CheckpointStore(tmp_path).read_latest()
    assert loaded.step == 1 and loaded.payload == _crawl_payload(3)
    assert loaded.corrupt_skipped == (newest.name,)
    # the writer notices the torn file and never appends after it
    store.write_checkpoint(_crawl_payload(9), step=3)
    assert _journals(tmp_path) == ["journal-00000001.jsonl", "journal-00000003.jsonl"]
    assert store.read_latest().payload == _crawl_payload(9)


def test_a_flipped_journal_byte_is_detected(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_crawl_payload(3), step=1)
    store.write_checkpoint(_crawl_payload(8), step=2)
    journal = tmp_path / "journal-00000001.jsonl"
    data = bytearray(journal.read_bytes())
    flip_at = data.rindex(b"u6")                 # inside the second line
    data[flip_at + 1] ^= 0x01
    journal.write_bytes(bytes(data))
    assert store.read_latest().step == 1
    data[5] ^= 0x01                              # inside the first line too
    journal.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpointError):
        store.read_latest()
    assert store.read_all() == []


def test_a_missing_journal_fails_its_checkpoints_only(tmp_path):
    CheckpointStore(tmp_path).write_checkpoint(_crawl_payload(3), step=1)
    CheckpointStore(tmp_path).write_checkpoint(_crawl_payload(8), step=2)
    (tmp_path / "journal-00000002.jsonl").unlink()
    assert CheckpointStore(tmp_path).read_latest().payload == _crawl_payload(3)
    (tmp_path / "journal-00000001.jsonl").unlink()
    with pytest.raises(CorruptCheckpointError):
        CheckpointStore(tmp_path).read_latest()


def test_a_manifest_whose_lengths_disagree_with_the_journal_fails(tmp_path):
    store = CheckpointStore(tmp_path)
    store.write_checkpoint(_crawl_payload(3), step=1)
    newest = store.write_checkpoint(_crawl_payload(8), step=2)
    manifest_path = newest / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["journal"]["lengths"][0][1] += 1
    manifest_path.write_text(canonical_json(manifest) + "\n")
    assert store.read_latest().step == 1


_ITEMS = st.lists(
    st.one_of(st.integers(-3, 3), st.text(max_size=3),
              st.lists(st.integers(0, 2), max_size=2)),
    max_size=4,
)
_LOG_PATHS = (("components", "crawl", "seen"), ("components", "crawl", "visited"),
              ("components", "client", "trace", "records"), ("top",))
_SAVE = st.tuples(
    # one change per Log: grow, keep, truncate, replace or leave out
    st.lists(st.tuples(st.sampled_from(["grow", "keep", "truncate", "replace", "absent"]),
                       _ITEMS),
             min_size=len(_LOG_PATHS), max_size=len(_LOG_PATHS)),
    st.booleans(),                                # a new store object first
    st.sampled_from([None, 1, 2, 3]),             # prune_old(keep=...) after
)


@settings(max_examples=60, deadline=None)
@given(saves=st.lists(_SAVE, min_size=1, max_size=8))
def test_journalled_payloads_read_back_as_written(saves):
    import tempfile
    from pathlib import Path

    lists = {path: [] for path in _LOG_PATHS}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store = CheckpointStore(directory)
        written = []
        for step, (changes, new_store, keep) in enumerate(saves):
            if new_store:
                store = CheckpointStore(directory)
            payload = {"kind": "sb-crawl", "step": step,
                       "components": {"crawl": {"requeues": {"u": step}}},
                       "inline": [Log([step])]}
            for path, (change, items) in zip(_LOG_PATHS, changes):
                log = lists[path]
                if change == "grow":
                    log.extend(items)
                elif change == "truncate":
                    del log[len(log) // 2:]
                    log.extend(items)
                elif change == "replace":
                    lists[path] = log = [*items, "replaced", step]
                if change == "absent":
                    continue
                node = payload
                for key in path[:-1]:
                    node = node.setdefault(key, {})
                node[path[-1]] = Log(log)
            expected = json.loads(canonical_json(payload))
            path = store.write_checkpoint(payload, step=step)
            written.append((path.name, expected))
            assert store.read_latest().payload == payload
            if keep is not None:
                store.prune_old(keep=keep)
                written = written[-keep:]
            assert [(entry.path.name, entry.payload) for entry in store.read_all()] == written
            assert CheckpointStore(directory).read_latest().payload == expected

            referenced = set()
            if store._journal is not None:
                referenced.add(store._journal.path.name)
            for name, _ in written:
                manifest = json.loads((directory / name / "manifest.json").read_text())
                if "journal" in manifest:
                    referenced.add(manifest["journal"]["name"])
            assert set(_journals(directory)) <= referenced
