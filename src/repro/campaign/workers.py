"""The worker pool: crawl specs, shard tasks, outcomes, the backends.

A :class:`CrawlSpec` names one crawl by value — site, crawler, seed,
scale, budget and SB hyper-parameters.  A :class:`ShardTask` is a
tuple of specs plus where to trace and checkpoint them, and a
:class:`ShardOutcome` is everything the caller needs back: one
:class:`SiteOutcome` per spec (counts, ledger, trace digest, and the
trace and crawler statistics the paper tables read), plus the shard's
folded metrics registry and each site's :class:`SiteFacts`.  All are
plain picklable dataclasses, so the same :func:`run_shard` function
serves both backends and both callers, the campaign engine and the
tables' ``ResultCache``:

* :class:`SerialBackend` — the deterministic reference.  Executes
  tasks one at a time in the given dispatch order, in-process;
* :class:`MultiprocessingBackend` — the real pool.  ``spawn``
  context (fork-safety is not assumed anywhere in the tree), workers
  ignore SIGINT so Ctrl-C lands only in the parent, and an interrupt
  terminates the pool gracefully: already-collected shards survive,
  uncollected ones come back as ``"interrupted"`` placeholders, and no
  child outlives the call.

Because every crawl is a pure function of its spec — checked at
runtime by the serial-vs-multiprocessing digest gate over every
crawler (``tests/test_campaign_engine.py``) — both backends produce
identical outcome sets, which is what makes the merged campaign report
and the rendered tables byte-identical across backends.
"""

from __future__ import annotations

import hashlib
import json
import signal
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Protocol

from repro.analysis.metrics import site_non_target_bytes
from repro.analysis.trace import CrawlTrace
from repro.baselines import make_crawler
from repro.baselines.registry import crawler_sb_config
from repro.campaign.scheduler import SiteWorkload
from repro.checkpoint.controller import CrawlInterrupted
from repro.core.crawler import SBConfig
from repro.core.early_stopping import scaled_early_stopping
from repro.http.ledger import CostLedger
from repro.ml.metrics import ConfusionMatrix
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.utils.rng import derive_seed
from repro.webgraph.model import SiteStatistics, WebsiteGraph


@dataclass(frozen=True)
class CrawlSpec:
    """One crawl, by value — hashable, picklable, spawn-safe.

    ``sb_config`` is normalised on construction exactly as
    :func:`make_crawler` applies it (``crawler_sb_config``): an SB
    crawler's config carries the spec's seed and the crawler's oracle
    flag, every other crawler's is None.  Two specs are therefore equal
    exactly when they build the same crawler for the same site, which
    makes the spec the tables' memo key; :func:`trace_name` makes it
    the name of the crawl's trace.  An early-stopping crawl's ``es_*``
    values are scaled to its site in the worker, not set here.
    """

    site: str
    crawler: str
    seed: int = 1
    scale: float = 0.5
    budget: float | None = None
    sb_config: SBConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sb_config",
            crawler_sb_config(self.crawler, self.seed, self.sb_config),
        )

    def config_changes(self) -> dict[str, object]:
        """The SB hyper-parameters that differ from ``SBConfig()``
        (seed and oracle flag aside: the spec's seed and crawler name
        them), in field order."""
        if self.sb_config is None:
            return {}
        default = SBConfig()
        return {
            f.name: getattr(self.sb_config, f.name)
            for f in fields(SBConfig)
            if f.name not in ("seed", "use_oracle", "observer")
            and getattr(self.sb_config, f.name) != getattr(default, f.name)
        }


def trace_name(spec: CrawlSpec) -> str:
    """The file name of a spec's JSONL trace:
    ``<site>-<crawler>-s<seed>.jsonl``, with the non-default SB
    hyper-parameters appended as ``-name=value,...`` when there are any."""
    name = f"{spec.site}-{spec.crawler}-s{spec.seed}"
    changes = spec.config_changes()
    if changes:
        name += "-" + ",".join(f"{k}={v}" for k, v in changes.items())
    return name + ".jsonl"


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order — picklable, spawn-safe."""

    shard_id: int
    #: the crawls, run in this order
    specs: tuple[CrawlSpec, ...]
    #: directory for per-crawl JSONL event traces (None = no tracing)
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
    """One crawl, reduced to what merging and the tables need —
    picklable.  It never carries the live bandit or action space."""

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
    # What the paper tables read.  ``trace_digest`` witnesses these for
    # equality, and a campaign checkpoint keeps only the fields above,
    # so an outcome restored from one carries the defaults.  The SB
    # statistics are None for every other crawler.
    trace: CrawlTrace | None = field(default=None, compare=False, repr=False)
    targets: frozenset[str] = field(
        default=frozenset(), compare=False, repr=False
    )
    confusion: ConfusionMatrix | None = field(
        default=None, compare=False, repr=False
    )
    reward_mean_nonzero: float | None = field(default=None, compare=False)
    reward_std_nonzero: float | None = field(default=None, compare=False)
    top10_rewards: tuple[float, ...] = field(default=(), compare=False)
    classifier_prequential_accuracy: float | None = field(
        default=None, compare=False
    )
    classifier_recent_accuracy: float | None = field(
        default=None, compare=False
    )

    @property
    def workload(self) -> SiteWorkload:
        """What the scheduler needs of this site."""
        return SiteWorkload(self.site, self.n_requests, self.total_bytes)


@dataclass(frozen=True)
class SiteFacts:
    """A generated site's ground truth for the paper tables (no crawler
    sees it), handed back beside its crawls instead of the graph."""

    site: str
    scale: float
    n_available: int
    total_targets: int
    total_target_bytes: int
    site_non_target_bytes: int
    statistics: SiteStatistics  # Table 1's census
    mime_by_target: dict[str, str]

    @classmethod
    def measure(cls, site: str, scale: float, graph: WebsiteGraph):
        stats, targets = graph.statistics(), graph.target_pages()
        return cls(site, scale, stats.n_available, stats.n_targets,
                   sum(p.size for p in targets), site_non_target_bytes(graph),
                   stats, {p.url: p.mime_type for p in targets})


@dataclass
class ShardOutcome:
    """What one worker hands back for one shard."""

    shard_id: int
    #: "completed" | "interrupted" (graceful-shutdown placeholder)
    status: str = "completed"
    sites: list[SiteOutcome] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    facts: list[SiteFacts] = field(default_factory=list)  # one per graph

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


def _crawl_site(task: ShardTask, spec: CrawlSpec, env,
                observer: MetricsObserver, checkpointer=None):
    """The one crawl-run function: ``spec``'s crawler on ``env``, with
    opt-in JSONL tracing (to ``trace_name(spec)``) and checkpointing."""
    from pathlib import Path

    from repro.obs.observer import MultiObserver
    from repro.obs.sinks import JsonlSink, truncate_events

    sb_config = spec.sb_config
    if sb_config is not None and sb_config.early_stopping:
        sb_config = replace(sb_config,
                            **scaled_early_stopping(env.n_available()))
    crawler = make_crawler(spec.crawler, spec.seed, sb_config)

    if task.trace_dir is None:
        env.observer = observer
        return crawler.crawl(env, budget=spec.budget, checkpoint=checkpointer)

    directory = Path(task.trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / trace_name(spec)
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
        meta = {"crawler": spec.crawler, "site": spec.site,
                "seed": spec.seed, "scale": spec.scale,
                "budget": spec.budget}
        changes = spec.config_changes()
        if changes:
            meta["config"] = changes
        sink = JsonlSink(trace_path, meta=meta)
    with sink:
        if checkpointer is not None:
            checkpointer.extras["sink"] = sink
        env.observer = MultiObserver([observer, sink])
        return crawler.crawl(env, budget=spec.budget, checkpoint=checkpointer)


def _site_outcome(spec: CrawlSpec, result) -> SiteOutcome:
    """Reduce one crawl result to its picklable outcome."""
    info = result.info
    return SiteOutcome(
        site=spec.site,
        crawler=spec.crawler,
        seed=spec.seed,
        n_requests=result.n_requests,
        n_targets=result.n_targets,
        total_bytes=result.trace.total_bytes,
        target_bytes=result.trace.target_bytes,
        stopped_early=result.stopped_early,
        n_dead_letters=result.n_dead_letters,
        trace_digest=trace_digest(result.trace),
        ledger=info["ledger"],
        trace=result.trace,
        targets=frozenset(result.targets),
        confusion=info.get("confusion"),
        reward_mean_nonzero=info.get("reward_mean_nonzero"),
        reward_std_nonzero=info.get("reward_std_nonzero"),
        top10_rewards=tuple(info.get("top10_rewards", ())),
        classifier_prequential_accuracy=info.get(
            "classifier_prequential_accuracy"
        ),
        classifier_recent_accuracy=info.get("classifier_recent_accuracy"),
    )


def run_shard(task: ShardTask, shutdown=None) -> ShardOutcome:
    """Run every crawl of one shard, in order; the single worker entry
    point.

    Runs identically in-process (serial backend) and in a spawned
    worker (multiprocessing backend): all inputs arrive in ``task``,
    all outputs leave in the returned :class:`ShardOutcome`, and every
    crawl is a function of its spec alone — nothing depends on which
    process, or in what order, shards execute.  Consecutive specs on
    the same site and scale share one environment (its render and
    parse caches are pure); each graph leaves only its :class:`SiteFacts`.

    With ``task.checkpoint_dir`` set the shard becomes durable: shard
    progress is persisted after every completed crawl, the in-flight
    crawl snapshots itself every ``task.checkpoint_every`` steps (and
    on ``shutdown``), and ``task.resume`` continues a
    partially-completed shard so the final outcome — and the merged
    report digest — is byte-identical to an uninterrupted run.
    Checkpoints are stored per site, so a checkpointed task holds at
    most one spec per site.
    """
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    outcome = ShardOutcome(shard_id=task.shard_id)
    progress_store = None
    completed: list = []
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

    def _write_progress() -> None:
        from repro.campaign.checkpoint import shard_progress_payload

        progress_store.write_checkpoint(
            shard_progress_payload(task.shard_id, completed),
            step=len(completed),
        )
        progress_store.prune_old(keep=2)

    env, env_key = None, None
    # Progress lists finished crawls in task order, so a resumed shard
    # continues after them.
    for spec in task.specs[len(completed):]:
        if shutdown is not None and shutdown.is_set():
            outcome.status = "interrupted"
            if progress_store is not None:
                _write_progress()
            return outcome
        observer = MetricsObserver()
        checkpointer = None
        if task.checkpoint_dir is not None:
            from repro.campaign.checkpoint import site_store
            from repro.checkpoint.controller import CrawlCheckpointer

            checkpointer = CrawlCheckpointer(
                site_store(task.checkpoint_dir, task.shard_id, spec.site),
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
        if (spec.site, spec.scale) != env_key:
            graph = load_paper_site(spec.site, spec.scale)
            env = CrawlEnvironment(graph)
            env_key = (spec.site, spec.scale)
            outcome.facts.append(SiteFacts.measure(*env_key, graph))
        try:
            result = _crawl_site(task, spec, env, observer, checkpointer)
        except CrawlInterrupted:
            # The crawler already saved its final mid-site checkpoint;
            # persist the shard's completed-crawl progress and hand back
            # the graceful-shutdown placeholder.
            outcome.status = "interrupted"
            if progress_store is not None:
                _write_progress()
            return outcome
        outcome.sites.append(_site_outcome(spec, result))
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
                outcome = run_shard(task, self.shutdown)
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
