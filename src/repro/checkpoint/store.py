"""Atomic, versioned on-disk checkpoint store.

Layout: one subdirectory per checkpoint, named by a monotonically
increasing sequence number, beside the journals of the checkpoints'
append-only lists::

    <store>/ckpt-00000001/state.json      canonical-JSON payload, minus its Logs
    <store>/ckpt-00000001/manifest.json   schema version, step, SHA-256, journal
    <store>/journal-00000001.jsonl        the Logs' new tails, one line per save

A :class:`~repro.checkpoint.codec.Log` reachable through dicts is not
written into ``state.json``: the save appends its new tail to the
journal this store object started, and the manifest records the
journal's size, the SHA-256 of that prefix and each Log's length.  A
save therefore costs what changed, not what the crawl has seen so far.

The journal line is flushed before ``state.json``; both checkpoint
files are written to a temp name and published with ``os.replace``,
and the manifest is written *last*: a torn write leaves either no
manifest or a digest mismatch, the loader detects it and the previous
checkpoint wins.  A new store object never appends to an existing
journal, so nothing is ever written after a torn tail.  Nothing in a
checkpoint references wall clock or absolute paths, so stores relocate
freely.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.codec import SCHEMA_VERSION, Log, canonical_json

#: keys every manifest.json carries (doc-gated in docs/checkpoint.md);
#: a manifest whose payload holds Logs also carries ``journal``
MANIFEST_FIELDS = ("schema_version", "seq", "step", "digest")

_CKPT_PREFIX = "ckpt-"
_JOURNAL_NAME = re.compile(r"journal-\d{8}\.jsonl")

#: where a Log sits in a payload: the dict keys leading to it
_Path = tuple[str, ...]


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures (corruption, schema drift,
    payload/configuration mismatches)."""


class CorruptCheckpointError(CheckpointError):
    """A checkpoint directory failed validation: missing or truncated
    manifest, digest mismatch, unparsable state file, or a journal
    prefix that is missing, torn or does not replay to the recorded
    lengths."""


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A validated checkpoint, plus provenance for diagnostics."""

    payload: dict
    seq: int
    step: int
    path: Path
    #: names of newer checkpoint dirs that failed validation and were
    #: skipped before this one validated (fail-loud breadcrumb)
    corrupt_skipped: tuple[str, ...] = field(default=())


@dataclass
class _Journal:
    """The journal one store object appends to."""

    path: Path
    size: int = 0
    sha256: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    #: the Log last written at each key path
    written: dict[_Path, list] = field(default_factory=dict)


def _write_atomic(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via temp file + ``os.replace``."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _split_logs(node: dict, path: _Path, logs: list) -> dict:
    """``node`` without the Logs reachable through dicts; each one goes
    to ``logs`` as ``(key path, Log)``.  Only dicts are copied."""
    kept = {}
    for key, value in node.items():
        if isinstance(key, str) and isinstance(value, Log):
            logs.append((path + (key,), value))
        elif isinstance(key, str) and isinstance(value, dict):
            kept[key] = _split_logs(value, path + (key,), logs)
        else:
            kept[key] = value
    return kept


class CheckpointStore:
    """Durable sequence of checkpoints under one directory.

    The write/read surface is deliberately tiny and fail-loud:
    :meth:`write_checkpoint` publishes atomically, :meth:`read_latest`
    validates digests and falls back past torn writes, and
    :meth:`prune_old` bounds disk growth while always keeping a
    fallback generation.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._journal: _Journal | None = None

    # -- writing -----------------------------------------------------

    def write_checkpoint(self, payload: dict, step: int = 0) -> Path:
        """Atomically publish ``payload`` as the next checkpoint and
        return its directory."""
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq()
        target = self.directory / f"{_CKPT_PREFIX}{seq:08d}"
        target.mkdir(exist_ok=True)
        logs: list[tuple[_Path, Log]] = []
        state = _split_logs(payload, (), logs)
        manifest = {"schema_version": SCHEMA_VERSION, "seq": seq, "step": step}
        if logs:
            manifest["journal"] = self._append_journal(seq, logs)
        # Encode once: the digest hashes the bytes state.json holds,
        # without its trailing newline.
        data = canonical_json(state).encode("utf-8")
        _write_atomic(target / "state.json", data + b"\n")
        manifest["digest"] = hashlib.sha256(data).hexdigest()
        # manifest last: its presence certifies a complete state file
        _write_atomic(
            target / "manifest.json",
            canonical_json(manifest).encode("utf-8") + b"\n",
        )
        return target

    def _append_journal(self, seq: int, logs: list[tuple[_Path, Log]]) -> dict:
        """Append the Logs' new tails as one line and return the
        manifest's ``journal`` entry."""
        journal, self._journal = self._journal, None
        if journal is not None and not (
            journal.path.is_file() and journal.path.stat().st_size == journal.size
        ):
            journal = None  # changed behind our back: never append to it
        if journal is None:
            journal = _Journal(self.directory / f"journal-{seq:08d}.jsonl")
        tails = []
        for path, log in logs:
            prev = journal.written.get(path)
            # Never trust the promise: a Log that does not extend the
            # one last written here is journalled whole.
            if prev is not None and log[:len(prev)] == prev:
                if len(log) == len(prev):
                    continue
                start = len(prev)
            else:
                start = 0
            tails.append([list(path), start, log[start:]])
        line = canonical_json({"seq": seq, "tails": tails}).encode("utf-8") + b"\n"
        mode = "ab" if journal.size else "wb"
        with journal.path.open(mode) as handle:
            handle.write(line)
            handle.flush()
        journal.size += len(line)
        journal.sha256.update(line)
        # copies: a producer may go on to extend the Log it passed
        journal.written.update((path, list(log)) for path, log in logs)
        self._journal = journal
        return {
            "name": journal.path.name,
            "bytes": journal.size,
            "sha256": journal.sha256.hexdigest(),
            "lengths": [[list(path), len(log)] for path, log in logs],
        }

    def _next_seq(self) -> int:
        existing = [seq for seq, _ in self._entries()]
        return (max(existing) + 1) if existing else 1

    # -- reading -----------------------------------------------------

    def _entries(self) -> list[tuple[int, Path]]:
        """(seq, dir) pairs, ascending, for every checkpoint-shaped dir."""
        if not self.directory.is_dir():
            return []
        entries = []
        for child in self.directory.iterdir():
            name = child.name
            if child.is_dir() and name.startswith(_CKPT_PREFIX):
                suffix = name[len(_CKPT_PREFIX):]
                if suffix.isdigit():
                    entries.append((int(suffix), child))
        return sorted(entries)

    def _load_dir(self, path: Path, journals: dict[str, bytes]) -> tuple[dict, dict]:
        """Validate one checkpoint dir and rebuild its payload; raise
        CorruptCheckpointError on any defect (missing file, bad JSON,
        schema drift, digest mismatch, bad journal).  ``journals``
        caches journal bytes across the dirs of one read."""
        try:
            manifest = json.loads((path / "manifest.json").read_bytes())
            state = (path / "state.json").read_bytes()
        except (OSError, ValueError) as exc:
            raise CorruptCheckpointError(
                f"unreadable checkpoint {path.name}: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or any(
            key not in manifest for key in MANIFEST_FIELDS
        ):
            raise CorruptCheckpointError(
                f"truncated manifest in {path.name}: need {MANIFEST_FIELDS}"
            )
        if manifest["schema_version"] != SCHEMA_VERSION:
            raise CorruptCheckpointError(
                f"checkpoint {path.name} has schema_version "
                f"{manifest['schema_version']!r}, expected {SCHEMA_VERSION}"
            )
        body = state[:-1]
        if not state.endswith(b"\n") or (
            hashlib.sha256(body).hexdigest() != manifest["digest"]
        ):
            raise CorruptCheckpointError(
                f"digest mismatch in {path.name}: state.json does not "
                f"match its manifest (torn write?)"
            )
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise CorruptCheckpointError(
                f"unparsable state in {path.name}: {exc}"
            ) from exc
        if "journal" in manifest:
            try:
                self._replay(payload, manifest, journals)
            except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
                raise CorruptCheckpointError(
                    f"bad journal for {path.name}: {exc}"
                ) from exc
        return payload, manifest

    def _replay(
        self, payload: dict, manifest: dict, journals: dict[str, bytes]
    ) -> None:
        """Put the journalled Logs back into ``payload``: check the
        journal prefix's size and digest, replay its tails, check the
        lengths.  Raises ValueError (or a lookup error) on any defect."""
        entry = manifest["journal"]
        name = entry["name"]
        if not isinstance(name, str) or not _JOURNAL_NAME.fullmatch(name):
            raise ValueError(f"bad journal name {name!r}")
        if name not in journals:
            journals[name] = (self.directory / name).read_bytes()
        size = entry["bytes"]
        prefix = journals[name][:size]
        if len(prefix) != size or not prefix.endswith(b"\n"):
            raise ValueError(f"{name} is shorter than {size} bytes")
        if hashlib.sha256(prefix).hexdigest() != entry["sha256"]:
            raise ValueError(f"{name} does not match its digest")
        logs: dict[_Path, list] = {}
        seq = None
        for line in prefix[:-1].split(b"\n"):
            record = json.loads(line)
            seq = record["seq"]
            for path, start, items in record["tails"]:
                log = logs.setdefault(tuple(path), [])
                if not 0 <= start <= len(log) or not isinstance(items, list):
                    raise ValueError(f"tail at {start} does not fit {path}")
                del log[start:]
                log.extend(items)
        if seq != manifest["seq"]:
            raise ValueError(f"{name} ends with save {seq}, not {manifest['seq']}")
        for path, length in entry["lengths"]:
            log = logs[tuple(path)]
            if len(log) != length:
                raise ValueError(f"{path} replays to {len(log)} items, not {length}")
            node = payload
            for key in path[:-1]:
                node = node[key]
            if not isinstance(node, dict) or path[-1] in node:
                raise ValueError(f"{path} does not lead to a journalled list")
            node[path[-1]] = log

    def read_latest(self, kind: str | None = None) -> LoadedCheckpoint | None:
        """Newest valid checkpoint, or ``None`` if the store is empty.

        Corrupt (torn) newer checkpoints are skipped — the previous
        valid one wins — and their names are reported in
        ``corrupt_skipped``.  If checkpoints exist but *none* validates,
        raises :class:`CorruptCheckpointError` instead of silently
        pretending the store is empty, whatever ``kind`` is.  ``kind``
        filters on the payload's ``"kind"`` field (valid checkpoints of
        another kind are passed over, not treated as corruption).
        """
        skipped: list[str] = []
        validated = False
        journals: dict[str, bytes] = {}
        for seq, path in reversed(self._entries()):
            try:
                payload, manifest = self._load_dir(path, journals)
            except CorruptCheckpointError:
                skipped.append(path.name)
                continue
            validated = True
            if kind is not None and payload.get("kind") != kind:
                continue
            return LoadedCheckpoint(
                payload=payload,
                seq=manifest["seq"],
                step=manifest["step"],
                path=path,
                corrupt_skipped=tuple(skipped),
            )
        if skipped and not validated:
            raise CorruptCheckpointError(
                f"no valid checkpoint in {self.directory.name}: all of "
                f"{skipped} failed validation"
            )
        return None

    def read_all(self, kind: str | None = None) -> list[LoadedCheckpoint]:
        """Every valid checkpoint, ascending by sequence number.

        Corrupt entries are skipped silently here (callers wanting the
        fail-loud contract use :meth:`read_latest`); ``kind`` filters on
        the payload's ``"kind"`` field.
        """
        loaded: list[LoadedCheckpoint] = []
        journals: dict[str, bytes] = {}
        for seq, path in self._entries():
            try:
                payload, manifest = self._load_dir(path, journals)
            except CorruptCheckpointError:
                continue
            if kind is not None and payload.get("kind") != kind:
                continue
            loaded.append(LoadedCheckpoint(
                payload=payload,
                seq=manifest["seq"],
                step=manifest["step"],
                path=path,
            ))
        return loaded

    # -- maintenance -------------------------------------------------

    def prune_old(self, keep: int = 2) -> int:
        """Delete all but the ``keep`` newest checkpoints (``keep >= 2``
        preserves the previous-generation fallback), then every journal
        that no kept manifest and not this store's own journal
        references; returns how many checkpoints were removed."""
        if keep < 1:
            raise ValueError("prune_old needs keep >= 1")
        entries = self._entries()
        removed = 0
        for _seq, path in entries[:-keep]:
            shutil.rmtree(path)
            removed += 1
        referenced = set()
        if self._journal is not None:
            referenced.add(self._journal.path.name)
        for _seq, path in entries[-keep:]:
            try:
                manifest = json.loads((path / "manifest.json").read_bytes())
                referenced.add(manifest["journal"]["name"])
            except (OSError, ValueError, TypeError, KeyError):
                continue
        if self.directory.is_dir():
            for child in self.directory.iterdir():
                if _JOURNAL_NAME.fullmatch(child.name) and child.name not in referenced:
                    child.unlink()
        return removed
