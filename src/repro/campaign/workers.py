"""The worker pool: shard tasks, shard outcomes, and the two backends.

A :class:`ShardTask` is everything one worker needs to crawl its shard
— site names, crawler, seed, scale, budget — and a
:class:`ShardOutcome` is everything the merge step needs back:
per-site summaries with ledgers and trace digests, plus the shard's
folded metrics registry.  Both are plain picklable dataclasses, so the
same :func:`run_shard` function serves both backends:

* :class:`SerialBackend` — the deterministic reference.  Executes
  tasks one at a time in the engine's seeded dispatch order (the
  virtual-politeness-clock interleaving computed in
  ``repro.campaign.engine``), in-process;
* :class:`MultiprocessingBackend` — the opt-in real pool.  ``spawn``
  context (fork-safety is not assumed anywhere in the tree), workers
  ignore SIGINT so Ctrl-C lands only in the parent, and an interrupt
  terminates the pool gracefully: already-collected shards survive,
  uncollected ones come back as ``"interrupted"`` placeholders, and no
  child outlives the call.

Because every crawl is a pure function of ``(site, crawler, seed,
scale, budget)`` — checked at runtime by the serial-vs-multiprocessing
digest gate over every crawler (``tests/test_campaign_engine.py``) —
both backends produce identical outcome sets, which is what makes the
merged campaign report byte-identical across backends.
"""

from __future__ import annotations

import hashlib
import json
import signal
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.analysis.trace import CrawlTrace
from repro.baselines import make_crawler
from repro.campaign.scheduler import SiteWorkload
from repro.checkpoint.controller import CrawlInterrupted
from repro.http.ledger import CostLedger
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order — picklable, spawn-safe."""

    shard_id: int
    sites: tuple[str, ...]
    crawler: str = "SB-CLASSIFIER"
    seed: int = 1
    scale: float = 0.5
    budget: float | None = None
    #: directory for per-site JSONL event traces (None = no tracing)
    trace_dir: str | None = None
    #: campaign checkpoint directory (None = checkpointing off)
    checkpoint_dir: str | None = None
    #: crawl steps between periodic mid-site checkpoints (0 = only on
    #: shutdown)
    checkpoint_every: int = 0
    #: resume from the shard's on-disk progress instead of starting fresh
    resume: bool = False


@dataclass(frozen=True)
class SiteOutcome:
    """One site's crawl, reduced to what merging needs — picklable."""

    site: str
    crawler: str
    seed: int
    n_requests: int
    n_targets: int
    total_bytes: int
    target_bytes: int
    stopped_early: bool
    n_dead_letters: int
    #: SHA-256 over the canonical request trace — the per-site witness
    #: behind the campaign report's digest
    trace_digest: str
    ledger: CostLedger

    @property
    def workload(self) -> SiteWorkload:
        """What the scheduler needs of this site."""
        return SiteWorkload(self.site, self.n_requests, self.total_bytes)


@dataclass
class ShardOutcome:
    """What one worker hands back for one shard."""

    shard_id: int
    #: "completed" | "interrupted" (graceful-shutdown placeholder)
    status: str = "completed"
    sites: list[SiteOutcome] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def n_requests(self) -> int:
        return sum(s.n_requests for s in self.sites)

    @property
    def n_targets(self) -> int:
        return sum(s.n_targets for s in self.sites)


def trace_digest(trace: CrawlTrace) -> str:
    """SHA-256 over the canonical JSON form of a request trace."""
    payload = [
        [r.method, r.url, r.status, r.size, r.is_target]
        for r in trace.records
    ]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def site_seed(campaign_seed: int, site: str) -> int:
    """The per-site crawl seed: derived, so sites are decorrelated and
    the assignment of sites to shards cannot change any crawl."""
    return derive_seed(campaign_seed, "campaign", site)


def _crawl_site(task: ShardTask, site: str, seed: int,
                observer: MetricsObserver, checkpointer=None):
    """One site's crawl, with opt-in JSONL tracing and checkpointing."""
    from pathlib import Path

    from repro.http.environment import CrawlEnvironment
    from repro.obs.observer import MultiObserver
    from repro.obs.sinks import JsonlSink, truncate_events
    from repro.webgraph.sites import load_paper_site

    crawler = make_crawler(task.crawler, seed)

    if task.trace_dir is None:
        env = CrawlEnvironment(
            load_paper_site(site, scale=task.scale), observer=observer
        )
        return crawler.crawl(env, budget=task.budget, checkpoint=checkpointer)

    directory = Path(task.trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / f"{site}-{task.crawler}-s{task.seed}.jsonl"
    resume_sink = None
    if checkpointer is not None and checkpointer.resume_payload is not None:
        resume_sink = checkpointer.resume_payload.get("extras", {}).get("sink")
    if resume_sink is not None:
        # Rewind the trace to the snapshot's event count, then append:
        # the resumed run re-emits events from the checkpoint onward
        # without duplicating anything before it.
        truncate_events(trace_path, resume_sink["n_events"])
        sink = JsonlSink(trace_path, append=True)
    else:
        sink = JsonlSink(
            trace_path,
            meta={"crawler": task.crawler, "site": site,
                  "seed": task.seed, "scale": task.scale,
                  "shard": task.shard_id},
        )
    with sink:
        if checkpointer is not None:
            checkpointer.extras["sink"] = sink
        env = CrawlEnvironment(
            load_paper_site(site, scale=task.scale),
            observer=MultiObserver([observer, sink]),
        )
        return crawler.crawl(env, budget=task.budget, checkpoint=checkpointer)


def _site_outcome(task: ShardTask, site: str, seed: int, result) -> SiteOutcome:
    """Reduce one crawl result to its picklable site outcome."""
    return SiteOutcome(
        site=site,
        crawler=task.crawler,
        seed=seed,
        n_requests=result.n_requests,
        n_targets=result.n_targets,
        total_bytes=result.trace.total_bytes,
        target_bytes=result.trace.target_bytes,
        stopped_early=result.stopped_early,
        n_dead_letters=result.n_dead_letters,
        trace_digest=trace_digest(result.trace),
        ledger=result.info["ledger"],
    )


def run_shard(task: ShardTask, shutdown=None) -> ShardOutcome:
    """Crawl every site of one shard; the single worker entry point.

    Runs identically in-process (serial backend) and in a spawned
    worker (multiprocessing backend): all inputs arrive in ``task``,
    all outputs leave in the returned :class:`ShardOutcome`, and every
    random draw derives from ``(task.seed, site)`` — nothing depends on
    which process, or in what order, shards execute.

    With ``task.checkpoint_dir`` set the shard becomes durable: shard
    progress is persisted after every completed site, the in-flight
    site snapshots itself every ``task.checkpoint_every`` steps (and on
    ``shutdown``), and ``task.resume`` continues a partially-completed
    shard so the final outcome — and the merged report digest — is
    byte-identical to an uninterrupted run.
    """
    outcome = ShardOutcome(shard_id=task.shard_id)
    progress_store = None
    completed: list = []
    done_sites: set[str] = set()
    if task.checkpoint_dir is not None:
        from repro.campaign.checkpoint import (
            SHARD_PROGRESS_KIND,
            restore_shard_progress,
            shard_store,
        )

        progress_store = shard_store(task.checkpoint_dir, task.shard_id)
        if task.resume:
            loaded = progress_store.read_latest(kind=SHARD_PROGRESS_KIND)
            if loaded is not None:
                completed = restore_shard_progress(loaded.payload)
                for site_outcome, registry in completed:
                    outcome.sites.append(site_outcome)
                    outcome.metrics.merge(registry)
                    done_sites.add(site_outcome.site)

    def _write_progress() -> None:
        from repro.campaign.checkpoint import shard_progress_payload

        progress_store.write_checkpoint(
            shard_progress_payload(task.shard_id, completed),
            step=len(completed),
        )
        progress_store.prune_old(keep=2)

    for site in sorted(task.sites):
        if site in done_sites:
            continue
        if shutdown is not None and shutdown.is_set():
            outcome.status = "interrupted"
            if progress_store is not None:
                _write_progress()
            return outcome
        seed = site_seed(task.seed, site)
        observer = MetricsObserver()
        checkpointer = None
        if task.checkpoint_dir is not None:
            from repro.campaign.checkpoint import site_store
            from repro.checkpoint.controller import CrawlCheckpointer

            checkpointer = CrawlCheckpointer(
                site_store(task.checkpoint_dir, task.shard_id, site),
                every=task.checkpoint_every,
                flag=shutdown,
            )
            checkpointer.extras["observer"] = observer
            if task.resume:
                loaded_site = checkpointer.store.read_latest()
                if loaded_site is not None:
                    checkpointer.arm_resume(loaded_site)
                    observer.restore_state(
                        loaded_site.payload["extras"]["observer"]
                    )
        try:
            result = _crawl_site(task, site, seed, observer, checkpointer)
        except CrawlInterrupted:
            # The crawler already saved its final mid-site checkpoint;
            # persist the shard's completed-site progress and hand back
            # the graceful-shutdown placeholder.
            outcome.status = "interrupted"
            if progress_store is not None:
                _write_progress()
            return outcome
        outcome.sites.append(_site_outcome(task, site, seed, result))
        outcome.metrics.merge(observer.registry)
        completed.append((outcome.sites[-1], observer.registry))
        if progress_store is not None:
            _write_progress()
    return outcome


def interrupted_outcome(shard_id: int) -> ShardOutcome:
    """The placeholder for a shard the shutdown path never collected."""
    return ShardOutcome(shard_id=shard_id, status="interrupted")


class WorkerPool(Protocol):
    """Structural backend contract: run tasks, return one outcome per
    task (order-insensitive — the merge step sorts by shard id)."""

    name: str

    def run_tasks(self, tasks: list[ShardTask]) -> list[ShardOutcome]: ...


class SerialBackend:
    """Deterministic in-process execution in the given dispatch order.

    The reference backend: what it returns *defines* the campaign
    report the multiprocessing backend must reproduce byte for byte.
    A ``KeyboardInterrupt`` mid-campaign degrades gracefully — shards
    already crawled survive, the rest report ``"interrupted"``.
    """

    name = "serial"

    def __init__(self, shutdown=None) -> None:
        #: optional ShutdownFlag checked between (and, via the crawl
        #: checkpointer, inside) shards for graceful durable shutdown
        self.shutdown = shutdown

    def run_tasks(self, tasks: list[ShardTask]) -> list[ShardOutcome]:
        outcomes: list[ShardOutcome] = []
        pending = list(tasks)
        try:
            while pending:
                task = pending.pop(0)
                if self.shutdown is not None:
                    outcome = run_shard(task, shutdown=self.shutdown)
                else:
                    outcome = run_shard(task)
                outcomes.append(outcome)
                if outcome.status == "interrupted":
                    # Durable shutdown: the in-flight shard checkpointed
                    # itself; the rest were never started.
                    outcomes.extend(
                        interrupted_outcome(t.shard_id) for t in pending
                    )
                    break
        except KeyboardInterrupt:
            outcomes.append(interrupted_outcome(task.shard_id))
            outcomes.extend(interrupted_outcome(t.shard_id) for t in pending)
        return outcomes


def _worker_ignore_sigint() -> None:
    """Pool initializer: Ctrl-C must land in the parent only, so the
    shutdown sequence (terminate, join, partial report) stays in one
    place instead of racing eight interpreters."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class MultiprocessingBackend:
    """Opt-in real parallelism over a ``spawn`` process pool.

    Tasks are submitted in the engine's dispatch order and collected in
    that same order (a deterministic barrier), so the outcome list —
    and hence the merged report — is identical to the serial backend's.
    On ``KeyboardInterrupt`` the pool is terminated and joined before
    returning: collected shards survive, uncollected ones come back as
    ``"interrupted"``, and no child process is left behind.

    ``_collect_hook`` is a test seam: called after each collected
    outcome, it lets the SIGINT tests inject an interrupt at an exact
    point without racing a real signal against the pool.
    """

    name = "multiprocessing"

    def __init__(
        self,
        n_workers: int = 4,
        _collect_hook: Callable[[ShardOutcome], None] | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("need at least one worker process")
        self.n_workers = n_workers
        self._collect_hook = _collect_hook

    def run_tasks(self, tasks: list[ShardTask]) -> list[ShardOutcome]:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        outcomes: list[ShardOutcome] = []
        pool = context.Pool(
            processes=min(self.n_workers, max(len(tasks), 1)),
            initializer=_worker_ignore_sigint,
        )
        try:
            handles = [pool.apply_async(run_shard, (task,)) for task in tasks]
            try:
                for task, handle in zip(tasks, handles):
                    outcomes.append(handle.get())
                    if self._collect_hook is not None:
                        self._collect_hook(outcomes[-1])
                pool.close()
            except KeyboardInterrupt:
                pool.terminate()
                collected = {o.shard_id for o in outcomes}
                for t in tasks:
                    if t.shard_id not in collected:
                        outcomes.append(interrupted_outcome(t.shard_id))
        finally:
            pool.join()
        return outcomes
