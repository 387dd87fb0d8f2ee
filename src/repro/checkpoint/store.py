"""Atomic, versioned on-disk checkpoint store.

Layout: one subdirectory per checkpoint, named by a monotonically
increasing sequence number::

    <store>/ckpt-00000001/state.json      canonical-JSON payload
    <store>/ckpt-00000001/manifest.json   schema version, step, SHA-256

Both files are written to a temp name and published with
``os.replace``, and the manifest is written *last*: a torn write leaves
either no manifest or a digest mismatch, the loader detects it and the
previous checkpoint wins.  Nothing in a checkpoint references wall
clock or absolute paths, so stores relocate freely.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.codec import (
    SCHEMA_VERSION,
    canonical_json,
    payload_digest,
    text_digest,
)

#: keys every manifest.json carries (doc-gated in docs/checkpoint.md)
MANIFEST_FIELDS = ("schema_version", "seq", "step", "digest")

_CKPT_PREFIX = "ckpt-"


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures (corruption, schema drift,
    payload/configuration mismatches)."""


class CorruptCheckpointError(CheckpointError):
    """A checkpoint directory failed validation: missing or truncated
    manifest, digest mismatch, or unparsable state file."""


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


def _write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via temp file + ``os.replace``."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)  # repro: noqa[CONC005] checkpoint store is the one sanctioned io surface; paths are per-shard private
    os.replace(tmp, path)  # repro: noqa[CONC005] atomic publish of a per-shard private file


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

    # -- writing -----------------------------------------------------

    def write_checkpoint(self, payload: dict, step: int = 0) -> Path:
        """Atomically publish ``payload`` as the next checkpoint and
        return its directory."""
        self.directory.mkdir(parents=True, exist_ok=True)  # repro: noqa[CONC005] per-shard private checkpoint dir
        seq = self._next_seq()
        target = self.directory / f"{_CKPT_PREFIX}{seq:08d}"
        target.mkdir(exist_ok=True)  # repro: noqa[CONC005] per-shard private checkpoint dir
        # Encode once: the digest hashes the text state.json holds,
        # without its trailing newline.
        text = canonical_json(payload)
        _write_atomic(target / "state.json", text + "\n")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "seq": seq,
            "step": step,
            "digest": text_digest(text),
        }
        # manifest last: its presence certifies a complete state file
        _write_atomic(target / "manifest.json", canonical_json(manifest) + "\n")
        return target

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

    def _load_dir(self, path: Path) -> tuple[dict, dict]:
        """Validate one checkpoint dir; raise CorruptCheckpointError on
        any defect (missing file, bad JSON, schema drift, digest
        mismatch)."""
        try:
            manifest = json.loads((path / "manifest.json").read_text())
            state_text = (path / "state.json").read_text()
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
        try:
            payload = json.loads(state_text)
        except ValueError as exc:
            raise CorruptCheckpointError(
                f"unparsable state in {path.name}: {exc}"
            ) from exc
        if payload_digest(payload) != manifest["digest"]:
            raise CorruptCheckpointError(
                f"digest mismatch in {path.name}: state.json does not "
                f"match its manifest (torn write?)"
            )
        return payload, manifest

    def read_latest(self, kind: str | None = None) -> LoadedCheckpoint | None:
        """Newest valid checkpoint, or ``None`` if the store is empty.

        Corrupt (torn) newer checkpoints are skipped — the previous
        valid one wins — and their names are reported in
        ``corrupt_skipped``.  If checkpoints exist but *none* validates,
        raises :class:`CorruptCheckpointError` instead of silently
        pretending the store is empty.  ``kind`` filters on the
        payload's ``"kind"`` field (valid checkpoints of another kind
        are passed over, not treated as corruption).
        """
        skipped: list[str] = []
        saw_any = False
        for seq, path in reversed(self._entries()):
            saw_any = True
            try:
                payload, manifest = self._load_dir(path)
            except CorruptCheckpointError:
                skipped.append(path.name)
                continue
            if kind is not None and payload.get("kind") != kind:
                continue
            return LoadedCheckpoint(
                payload=payload,
                seq=manifest["seq"],
                step=manifest["step"],
                path=path,
                corrupt_skipped=tuple(skipped),
            )
        if saw_any and skipped and kind is None:
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
        for seq, path in self._entries():
            try:
                payload, manifest = self._load_dir(path)
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
        preserves the previous-generation fallback); returns how many
        were removed."""
        if keep < 1:
            raise ValueError("prune_old needs keep >= 1")
        entries = self._entries()
        removed = 0
        for _seq, path in entries[:-keep] if keep else entries:
            shutil.rmtree(path)  # repro: noqa[CONC005] per-shard private checkpoint dir
            removed += 1
        return removed
