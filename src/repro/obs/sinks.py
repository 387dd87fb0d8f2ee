"""Event sinks: in-memory capture and JSONL persistence.

The JSONL wire format (one header line, then one event per line) is
specified in docs/observability.md and mirrors
``repro.analysis.trace_io``:

* line 1 — header: ``{"format": 1, "stream": "repro.obs", ...meta}``;
* lines 2..n — events: ``{"e": "<kind>", ...fields}`` with compact
  separators, fields in dataclass declaration order.

Nothing here reads the clock: files contain only what the event stream
carries, so the same seed produces byte-identical trace files.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import CrawlEvent, event_from_dict

#: JSONL format version written to (and demanded from) header lines.
FORMAT_VERSION = 1
#: Header ``stream`` tag distinguishing event traces from request traces.
STREAM_TAG = "repro.obs"

#: ``json.dumps(..., separators=(",", ":"))`` without a new encoder per call
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


class MemorySink:
    """Keeps every event in a list; the default sink for tests and
    interactive inspection."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[CrawlEvent] = []

    def on_event(self, event: CrawlEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[CrawlEvent]:
        """Events whose wire tag equals ``kind`` (e.g. ``"fetch"``)."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """Event count per kind, sorted by kind for stable reporting."""
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    def clear(self) -> None:
        self.events.clear()

    def truncate_to(self, n_events: int) -> None:
        """Drop events past ``n_events`` (resume-from-checkpoint rewind)."""
        del self.events[n_events:]

    # -- checkpointing (repro.checkpoint) ----------------------------

    def snapshot_state(self) -> dict:
        return {"n_events": len(self.events)}

    def restore_state(self, state: dict) -> None:
        self.truncate_to(state["n_events"])


class JsonlSink:
    """Streams events to a JSONL file; use as a context manager (or call
    :meth:`close`) so the file is released before readers open it.

    Writes are **line-buffered**: every event line reaches the OS as
    soon as it is written, so a crawl that dies mid-run (e.g. under
    fault injection) still leaves a complete, parseable trace of every
    event emitted before the crash — no truncated trailing line.
    ``close()`` is idempotent and runs even when the ``with`` body
    raises; events sent after close fail loudly instead of vanishing.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path,
        meta: dict[str, object] | None = None,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.n_events = 0
        if append and self.path.exists() and self.path.stat().st_size > 0:
            # Resume mode: keep the existing header and events (the
            # caller has already rewound the file to the checkpoint with
            # :func:`truncate_events`) and continue the stream in place.
            with self.path.open("r", encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                if header.get("format") != FORMAT_VERSION:
                    raise ValueError(
                        f"cannot append to {self.path}: unsupported "
                        f"format {header.get('format')!r}"
                    )
                self.n_events = sum(1 for line in handle if line.strip())
            # buffering=1 = line-buffered text mode: each "\n" flushes.
            self._handle = self.path.open("a", encoding="utf-8", buffering=1)
            return
        self._handle = self.path.open("w", encoding="utf-8", buffering=1)
        header = {"format": FORMAT_VERSION, "stream": STREAM_TAG}
        if meta:
            header.update(meta)
        self._handle.write(json.dumps(header, separators=(",", ":")) + "\n")

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def on_event(self, event: CrawlEvent) -> None:
        if self._handle.closed:
            raise ValueError(
                f"JsonlSink({self.path}) is closed; events emitted after "
                "close would be lost silently"
            )
        self._handle.write(_encode_compact(event.to_dict()) + "\n")
        self.n_events += 1

    def flush(self) -> None:
        """Push buffered bytes to the OS (a no-op under line buffering,
        kept for sinks opened on exotic streams)."""
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- checkpointing (repro.checkpoint) ----------------------------

    def snapshot_state(self) -> dict:
        return {"n_events": self.n_events}

    def restore_state(self, state: dict) -> None:
        """Verify the reopened file already sits at the snapshot's event
        count (the caller rewinds with :func:`truncate_events` and
        reopens with ``append=True`` before restoring)."""
        if self.n_events != state["n_events"]:
            raise ValueError(
                f"trace {self.path} holds {self.n_events} events but the "
                f"checkpoint recorded {state['n_events']}: rewind it with "
                "truncate_events before resuming"
            )


def truncate_events(path: str | Path, n_events: int) -> None:
    """Rewind a JSONL event trace to its header plus first ``n_events``
    event lines (resume-from-checkpoint: drop events emitted after the
    snapshot so the resumed run can append without duplicates).

    Fails loudly if the file holds fewer than ``n_events`` events —
    that means the checkpoint and the trace drifted apart.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:  # repro: noqa[CONC005] rewinding this shard's own trace
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"empty event trace: {path}")
    header, events = lines[0], lines[1:]
    if json.loads(header).get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported event-trace format in {path}")
    if len(events) < n_events:
        raise ValueError(
            f"cannot rewind {path} to {n_events} events: "
            f"only {len(events)} present"
        )
    with path.open("w", encoding="utf-8") as handle:  # repro: noqa[CONC005] rewinding this shard's own trace
        handle.write(header)
        handle.writelines(events[:n_events])


def read_events(path: str | Path) -> tuple[dict[str, object], list[CrawlEvent]]:
    """Read a JSONL event trace back: ``(header_meta, events)``.

    Raises ``ValueError`` on an empty file, a wrong format version, or
    an unknown event kind — a truncated or foreign file fails loudly.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"empty event trace: {path}")
        header = json.loads(header_line)
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported event-trace format: {header.get('format')!r}"
            )
        events = [
            event_from_dict(json.loads(line))
            for line in handle
            if line.strip()
        ]
    meta = {k: v for k, v in header.items() if k not in ("format", "stream")}
    return meta, events
