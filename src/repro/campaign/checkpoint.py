"""Campaign-level checkpoint payloads and store layout.

The durable-state layout under a campaign checkpoint directory is::

    <dir>/campaign/                 shard-outcome payloads (one per
                                    completed shard, written by the
                                    engine after collection)
    <dir>/shard-000/                shard-progress payloads (completed
                                    sites of shard 0, written by the
                                    worker after every site)
    <dir>/shard-000/site-<name>/    mid-crawl snapshots of the site the
                                    worker was crawling when stopped

Everything stored here is a canonical-JSON payload (repro.checkpoint
codec discipline: no wall clock, no absolute paths, insertion-ordered
lists instead of int-keyed dicts), so checkpoint directories relocate
freely and resumed runs replay byte-identically.
"""

from __future__ import annotations

from pathlib import Path

from repro.checkpoint.store import CheckpointStore
from repro.http.ledger import CostLedger
from repro.obs.metrics import MetricsRegistry

#: payload kinds written by the campaign layer
SHARD_PROGRESS_KIND = "shard-progress"
SHARD_OUTCOME_KIND = "shard-outcome"


def shard_store(directory: str | Path, shard_id: int) -> CheckpointStore:
    """The store holding one shard's progress payloads."""
    return CheckpointStore(Path(directory) / f"shard-{shard_id:03d}")


def site_store(directory: str | Path, shard_id: int, site: str) -> CheckpointStore:
    """The store holding mid-crawl snapshots of one site of one shard."""
    return CheckpointStore(Path(directory) / f"shard-{shard_id:03d}" / f"site-{site}")


def campaign_store(directory: str | Path) -> CheckpointStore:
    """The store holding completed shard outcomes for engine resume."""
    return CheckpointStore(Path(directory) / "campaign")


# -- SiteOutcome codec ----------------------------------------------------


def site_outcome_to_payload(outcome) -> dict:
    """A ``SiteOutcome`` as a canonical-JSON-safe payload."""
    return {
        "site": outcome.site,
        "crawler": outcome.crawler,
        "seed": outcome.seed,
        "n_requests": outcome.n_requests,
        "n_targets": outcome.n_targets,
        "total_bytes": outcome.total_bytes,
        "target_bytes": outcome.target_bytes,
        "stopped_early": outcome.stopped_early,
        "n_dead_letters": outcome.n_dead_letters,
        "trace_digest": outcome.trace_digest,
        "ledger": outcome.ledger.snapshot_state(),
    }


def payload_to_site_outcome(payload: dict):
    """Inverse of :func:`site_outcome_to_payload`."""
    from repro.campaign.workers import SiteOutcome

    ledger = CostLedger()
    ledger.restore_state(payload["ledger"])
    return SiteOutcome(
        site=payload["site"],
        crawler=payload["crawler"],
        seed=payload["seed"],
        n_requests=payload["n_requests"],
        n_targets=payload["n_targets"],
        total_bytes=payload["total_bytes"],
        target_bytes=payload["target_bytes"],
        stopped_early=payload["stopped_early"],
        n_dead_letters=payload["n_dead_letters"],
        trace_digest=payload["trace_digest"],
        ledger=ledger,
    )


# -- shard progress (worker side) -----------------------------------------


def shard_progress_payload(shard_id: int, completed: list) -> dict:
    """Completed sites of a shard, in crawl (sorted-site) order.

    ``completed`` is a list of ``(SiteOutcome, MetricsRegistry)`` pairs;
    the per-site registries are stored separately so a resumed worker
    re-merges them in the exact order the uninterrupted run would have
    (float summation order is part of byte-identity).
    """
    return {
        "kind": SHARD_PROGRESS_KIND,
        "shard_id": shard_id,
        "sites": [
            [outcome.site, {
                "outcome": site_outcome_to_payload(outcome),
                "metrics": registry.snapshot_state(),
            }]
            for outcome, registry in completed
        ],
    }


def restore_shard_progress(payload: dict) -> list:
    """``(SiteOutcome, MetricsRegistry)`` pairs from a progress payload."""
    completed = []
    for _site, entry in payload["sites"]:
        registry = MetricsRegistry()
        registry.restore_state(entry["metrics"])
        completed.append((payload_to_site_outcome(entry["outcome"]), registry))
    return completed


# -- shard outcomes (engine side) -----------------------------------------


def shard_outcome_to_payload(outcome) -> dict:
    """A completed ``ShardOutcome`` as a canonical-JSON-safe payload."""
    return {
        "kind": SHARD_OUTCOME_KIND,
        "shard_id": outcome.shard_id,
        "status": outcome.status,
        "sites": [site_outcome_to_payload(s) for s in outcome.sites],
        "metrics": outcome.metrics.snapshot_state(),
    }


def payload_to_shard_outcome(payload: dict):
    """Inverse of :func:`shard_outcome_to_payload`."""
    from repro.campaign.workers import ShardOutcome

    metrics = MetricsRegistry()
    metrics.restore_state(payload["metrics"])
    return ShardOutcome(
        shard_id=payload["shard_id"],
        status=payload["status"],
        sites=[payload_to_site_outcome(p) for p in payload["sites"]],
        metrics=metrics,
    )

