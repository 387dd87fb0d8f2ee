"""Content-hash incremental cache for the whole-program lint pass.

Phase 2 needs every file's symbol table, so a naive implementation
re-parses the whole tree on every run — painful for the self-lint gate
and ``repro.precheck``, which run on each PR.  The cache keeps, per
file, everything phase 1 produces (findings, suppressed findings,
symbols, noqa markers) keyed by the file's SHA-256 **content hash**, so
an unchanged file costs one hash instead of a parse + two AST walks.

Invalidation is deliberately coarse and safe:

* per file — any content change flips the SHA-256;
* whole cache — the top-level ``key`` combines the rule-set version
  (:data:`repro.lint.rules.RULESET_VERSION`, bumped whenever rule
  behaviour changes), the exact set of active rule codes, and a digest
  of the effective :class:`~repro.lint.config.RuleConfig`.  A mismatch
  discards everything rather than guessing which entries survive.

The on-disk format is a single sorted-keys JSON document
(``.repro-lint-cache.json`` by default, git-ignored), written
atomically via rename so a crashed run cannot leave a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.lint.engine import Finding
from repro.lint.symbols import ModuleSymbols

#: Bumped when the on-disk cache layout itself changes.
#: 2: per-file dataflow facts (``df_facts``) joined the entry layout.
#: 3: per-file effect facts (``effect_facts``) joined the entry layout.
#: 4: both fact maps left again; ``symbols_only`` marks reference-corpus
#:    entries.
CACHE_FORMAT = 4


def interpreter_tag() -> str:
    """``py3.11``-style tag of the running interpreter.

    Part of the whole-cache key: AST node shapes differ across minor
    versions, so a cache written under 3.11 must not be replayed under
    3.12 (CI runs both, and a shared workspace would otherwise
    ping-pong between them).
    """
    return f"py{sys.version_info[0]}.{sys.version_info[1]}"


def content_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class CachedFile:
    """Phase-1 output for one file, as stored in / restored from cache."""

    sha: str
    findings: list[Finding]
    suppressed: list[Finding]
    symbols: ModuleSymbols | None
    noqa: dict[int, frozenset[str] | None]
    #: A reference-corpus entry: symbols only, no rule ever ran on it,
    #: so it must never serve a linted file.
    symbols_only: bool = False

    def to_dict(self) -> dict:
        return {
            "sha": self.sha,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "symbols": self.symbols.to_dict() if self.symbols else None,
            "noqa": {
                str(line): (None if codes is None else sorted(codes))
                for line, codes in self.noqa.items()
            },
            "symbols_only": self.symbols_only,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CachedFile":
        return cls(
            sha=data["sha"],
            findings=[Finding(**f) for f in data["findings"]],
            suppressed=[Finding(**f) for f in data["suppressed"]],
            symbols=(ModuleSymbols.from_dict(data["symbols"])
                     if data["symbols"] else None),
            noqa={
                int(line): (None if codes is None else frozenset(codes))
                for line, codes in data["noqa"].items()
            },
            symbols_only=data["symbols_only"],
        )


@dataclass
class CacheStats:
    """Hit/miss accounting surfaced in the ``--format json`` report."""

    enabled: bool = False
    files: int = 0
    hits: int = 0
    misses: int = 0

    def to_dict(self) -> dict:
        return {"enabled": self.enabled, "files": self.files,
                "hits": self.hits, "misses": self.misses}


class LintCache:
    """Load/store per-file phase-1 results under one invalidation key."""

    def __init__(self, path: str | Path, key: str) -> None:
        self.path = Path(path)
        self.key = f"{interpreter_tag()}|{key}"
        self.entries: dict[str, CachedFile] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(document, dict):
            return
        if document.get("format") != CACHE_FORMAT or document.get("key") != self.key:
            self._dirty = True  # stale cache: rewrite on save
            return
        try:
            self.entries = {
                path: CachedFile.from_dict(entry)
                for path, entry in document.get("files", {}).items()
            }
        except (KeyError, TypeError, ValueError):
            self.entries = {}
            self._dirty = True

    def get(self, path: str, sha: str,
            symbols_only: bool = False) -> CachedFile | None:
        """The entry for ``path`` at content ``sha``, or ``None``.

        A symbols-only entry answers only a symbols-only request; a full
        entry answers both.
        """
        entry = self.entries.get(path)
        if (entry is not None and entry.sha == sha
                and (symbols_only or not entry.symbols_only)):
            return entry
        return None

    def put(self, path: str, entry: CachedFile) -> None:
        self.entries[path] = entry
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        document = {
            "format": CACHE_FORMAT,
            "key": self.key,
            "files": {path: entry.to_dict()
                      for path, entry in sorted(self.entries.items())},
        }
        text = json.dumps(document, indent=1, sort_keys=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            return  # caching is best-effort; never fail the lint over it
        self._dirty = False
