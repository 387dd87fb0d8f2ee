"""Cost accounting for a crawl.

The paper uses two cost functions ω (Sec. 2.2): request count (each
GET or HEAD costs 1) and received data volume.  The ledger tracks both
simultaneously, split into target and non-target volume (needed for the
Table 3 metric), plus the retries and simulated wait time of fault
handling.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostLedger:
    """Mutable request/volume counters for one crawler run."""

    n_get: int = 0
    n_head: int = 0
    bytes_total: int = 0
    bytes_target: int = 0
    bytes_non_target: int = 0
    #: retries issued by the client's RetryPolicy (each retry is also a
    #: full request above — this counts the *extra* attempts).
    n_retries: int = 0
    #: simulated seconds spent waiting: retry backoff, honoured
    #: Retry-After values, and slow-response latency.  Never wall-clock.
    wait_seconds: float = 0.0

    @property
    def n_requests(self) -> int:
        """Total requests — the paper's request cost ω (GET and HEAD)."""
        return self.n_get + self.n_head

    def record(self, method: str, size: int, is_target: bool) -> None:
        if method == "GET":
            self.n_get += 1
        elif method == "HEAD":
            self.n_head += 1
        else:
            raise ValueError(f"unknown method: {method}")
        self.bytes_total += size
        if is_target:
            self.bytes_target += size
        else:
            self.bytes_non_target += size

    def record_retry(self, wait_seconds: float) -> None:
        """Charge one scheduled retry and its backoff wait."""
        self.n_retries += 1
        self.record_wait(wait_seconds)

    def record_wait(self, seconds: float) -> None:
        """Charge simulated wait time (backoff, Retry-After, slow faults)."""
        if seconds < 0:
            raise ValueError("wait time cannot be negative")
        self.wait_seconds += seconds

    def merge(self, other: "CostLedger") -> "CostLedger":
        """Fold ``other`` into this ledger (campaign shard aggregation).

        The fold is associative and commutative with the fresh ledger as
        identity, so per-shard ledgers merge losslessly in any grouping
        — the property the campaign engine's digest contract rests on
        (tests/test_http_ledger.py asserts it).  Returns ``self`` so
        folds chain: ``total.merge(a).merge(b)``.
        """
        self.n_get += other.n_get
        self.n_head += other.n_head
        self.bytes_total += other.bytes_total
        self.bytes_target += other.bytes_target
        self.bytes_non_target += other.bytes_non_target
        self.n_retries += other.n_retries
        self.wait_seconds += other.wait_seconds
        return self

    def snapshot(self) -> "CostLedger":
        return CostLedger(
            n_get=self.n_get,
            n_head=self.n_head,
            bytes_total=self.bytes_total,
            bytes_target=self.bytes_target,
            bytes_non_target=self.bytes_non_target,
            n_retries=self.n_retries,
            wait_seconds=self.wait_seconds,
        )

    # -- checkpointing (repro.checkpoint) --------------------------------
    # (``snapshot`` above predates the protocol and means "defensive
    # copy" — hence the distinct ``snapshot_state`` name.)

    def snapshot_state(self) -> dict:
        return {
            "n_get": self.n_get,
            "n_head": self.n_head,
            "bytes_total": self.bytes_total,
            "bytes_target": self.bytes_target,
            "bytes_non_target": self.bytes_non_target,
            "n_retries": self.n_retries,
            "wait_seconds": self.wait_seconds,
        }

    def restore_state(self, state: dict) -> None:
        self.n_get = state["n_get"]
        self.n_head = state["n_head"]
        self.bytes_total = state["bytes_total"]
        self.bytes_target = state["bytes_target"]
        self.bytes_non_target = state["bytes_non_target"]
        self.n_retries = state["n_retries"]
        self.wait_seconds = state["wait_seconds"]
