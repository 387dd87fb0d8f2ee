"""The campaign execution engine: shard, dispatch, collect, merge.

:func:`run_campaign` is the one entry point: it partitions a
:class:`CampaignSpec`'s sites into per-domain shards
(:mod:`repro.campaign.partitions`), derives a seeded dispatch order (a
``derive_rng(seed, "campaign", "interleave")`` shuffle — the virtual
interleaving a politeness-aware scheduler would explore), runs the
shards through a worker-pool backend (:mod:`repro.campaign.workers`),
and merges the outcomes into one canonical
:class:`~repro.campaign.merge.CampaignRunReport`.

Determinism guarantee (docs/campaign.md): for a fixed spec, the merged
report — and hence its SHA-256 digest — is byte-identical across the
serial and multiprocessing backends and across repeated runs.  The
engine earns this by construction rather than by luck:

* every per-site crawl seed derives from ``(seed, site)`` only, so the
  site-to-shard assignment cannot perturb any crawl;
* all ordering is normalised in the merge step, after collection;
* virtual shard times come from a post-hoc simulation shared by both
  backends — wall-clock never appears in the payload;
* campaign observability events (``shard_started`` /
  ``shard_finished`` / ``campaign_merged``) are *replayed* to the
  observer after collection, in dispatch order, so even the event
  stream is byte-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.merge import CampaignRunReport, merge_outcomes
from repro.campaign.partitions import Partition, partition_sites
from repro.campaign.workers import (
    CrawlSpec,
    SerialBackend,
    ShardTask,
    WorkerPool,
    site_seed,
)
from repro.obs.events import CampaignMerged, ShardFinished, ShardStarted
from repro.obs.observer import Observer
from repro.utils.rng import derive_rng
from repro.webgraph.sites import PAPER_SITES


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines one campaign run (and its digest)."""

    sites: tuple[str, ...]
    crawler: str = "SB-CLASSIFIER"
    seed: int = 1
    scale: float = 0.5
    budget: float | None = None
    n_shards: int = 4
    n_workers: int = 4
    politeness_delay: float = 1.0
    #: directory for per-site JSONL event traces (None = no tracing)
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("campaign needs at least one site")
        if self.n_workers <= 0:
            raise ValueError("need at least one worker")
        if self.politeness_delay < 0:
            raise ValueError("politeness delay cannot be negative")


def site_weights(sites: tuple[str, ...]) -> dict[str, float]:
    """LPT cost estimates: page counts from the paper-site profiles
    (unknown sites weigh 1.0 — partitioning still balances counts)."""
    return {
        site: float(PAPER_SITES[site].n_pages)
        for site in sites
        if site in PAPER_SITES
    }


def dispatch_order(spec: CampaignSpec, partitions: list[Partition]) -> list[int]:
    """The seeded shard interleaving: a deterministic shuffle of shard
    ids, shared verbatim by both backends (submission order there,
    virtual-slot packing order in the merge step)."""
    order = [p.shard_id for p in partitions]
    derive_rng(spec.seed, "campaign", "interleave").shuffle(order)
    return order


def shard_tasks(
    spec: CampaignSpec,
    partitions: list[Partition],
    order: list[int],
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> list[ShardTask]:
    """One picklable work order per shard, in dispatch order: a spec
    per site, in site order, crawled with the site's derived seed."""
    by_id = {p.shard_id: p for p in partitions}
    return [
        ShardTask(
            shard_id=shard_id,
            specs=tuple(
                CrawlSpec(site, spec.crawler, site_seed(spec.seed, site),
                          spec.scale, spec.budget)
                for site in sorted(by_id[shard_id].sites)
            ),
            trace_dir=spec.trace_dir,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        for shard_id in order
    ]


def run_campaign(
    spec: CampaignSpec,
    backend: WorkerPool | None = None,
    observer: Observer | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> CampaignRunReport:
    """Execute a campaign end to end and return the merged report.

    ``backend`` defaults to the deterministic :class:`SerialBackend`;
    pass a :class:`~repro.campaign.workers.MultiprocessingBackend` for
    real parallelism — the report is byte-identical either way.
    ``observer`` receives the replayed campaign event stream.

    With ``checkpoint_dir`` set the campaign is durable: every
    completed shard's outcome is persisted, workers write per-shard
    progress and mid-site snapshots, and ``resume=True`` continues an
    interrupted campaign — already-completed shards are loaded from
    disk instead of re-crawled, partially-completed shards resume
    mid-site, and the merged report (and digest) is byte-identical to
    an uninterrupted run.  Checkpoint parameters never enter the report
    ``config``, so checkpointed and plain runs share one digest.
    """
    pool = backend if backend is not None else SerialBackend()
    partitions = partition_sites(
        list(spec.sites), spec.n_shards, weights=site_weights(spec.sites)
    )
    order = dispatch_order(spec, partitions)
    tasks = shard_tasks(
        spec, partitions, order,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )

    restored: dict[int, object] = {}
    if checkpoint_dir is not None and resume:
        from repro.campaign.checkpoint import (
            SHARD_OUTCOME_KIND,
            campaign_store,
            payload_to_shard_outcome,
        )

        for loaded in campaign_store(checkpoint_dir).read_all(
            kind=SHARD_OUTCOME_KIND
        ):
            outcome = payload_to_shard_outcome(loaded.payload)
            restored[outcome.shard_id] = outcome  # latest write wins

    pending = [t for t in tasks if t.shard_id not in restored]
    fresh = pool.run_tasks(pending) if pending else []

    if checkpoint_dir is not None:
        from repro.campaign.checkpoint import (
            campaign_store,
            shard_outcome_to_payload,
        )

        store = campaign_store(checkpoint_dir)
        for outcome in fresh:
            if outcome.status == "completed":
                store.write_checkpoint(shard_outcome_to_payload(outcome))

    outcomes = list(restored.values()) + fresh

    report = merge_outcomes(
        outcomes,
        partitions,
        order,
        config={
            "sites": sorted(spec.sites),
            "crawler": spec.crawler,
            "seed": spec.seed,
            "scale": spec.scale,
            "budget": spec.budget,
            "n_shards": len(partitions),
            "n_workers": spec.n_workers,
            "politeness_delay": spec.politeness_delay,
        },
        n_workers=spec.n_workers,
        politeness_delay=spec.politeness_delay,
    )

    if observer is not None and observer.enabled:
        _replay_events(observer, report)
    return report


def _replay_events(observer: Observer, report: CampaignRunReport) -> None:
    """Emit the campaign event stream *after* collection, in dispatch
    order — a deterministic record, not a live feed, so both backends
    produce the same bytes (the shard_started docstring's contract)."""
    rows = {row["shard_id"]: row for row in report.shard_rows}
    sites = {p.shard_id: p.sites for p in report.partitions}
    for shard_id in report.dispatch_order:
        row = rows[shard_id]
        observer.on_event(ShardStarted(
            shard_id=shard_id,
            n_sites=row["n_sites"],
            sites=",".join(sites[shard_id]),
            virtual_start=row["virtual_start"],
        ))
        observer.on_event(ShardFinished(
            shard_id=shard_id,
            n_requests=row["n_requests"],
            n_targets=row["n_targets"],
            virtual_finish=row["virtual_finish"],
            status=row["status"],
        ))
    observer.on_event(CampaignMerged(
        n_shards=report.n_shards,
        n_sites=report.n_sites,
        n_requests=report.n_requests,
        n_targets=report.n_targets,
        makespan_seconds=report.makespan_seconds,
        digest=report.digest,
    ))
