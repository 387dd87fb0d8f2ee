"""Inputs, set-up and one repetition of each benchmark workload.

Every input is derived from the workload seed: the site graphs (the
paper-site profile with its generator seed replaced), the crawler seed
and the fault-plan and retry-jitter seeds.  The program under test only
ever receives the generated objects.

Load is one closed loop: one process crawls with one crawler at a
time, and the crawler sends its next request only after the previous
one returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.simple import BFSCrawler
from repro.checkpoint.controller import CrawlCheckpointer
from repro.checkpoint.store import CheckpointStore, CorruptCheckpointError
from repro.core.crawler import SBConfig, SBCrawler
from repro.http.client import RetryPolicy
from repro.http.environment import CrawlEnvironment
from repro.http.faults import FaultPlan, FaultSpec
from repro.obs.observer import MultiObserver
from repro.obs.sinks import JsonlSink
from repro.utils.rng import derive_seed
from repro.webgraph.generator import generate_site
from repro.webgraph.model import PageKind, WebsiteGraph
from repro.webgraph.sites import PAPER_SITES

from hostclock import HostClock

#: request budget of the sb-durable crawl; the other workloads crawl
#: their sites to the end (see README.md for why)
BUDGET = 2500
#: injected fault rate on sb-durable (share of requests starting a fault)
FAULT_RATE = 0.1
#: loop steps between checkpoints on sb-durable (the CLI default)
CHECKPOINT_EVERY = 25


@dataclass(frozen=True)
class Spec:
    crawler: str
    #: a repetition crawls one graph of each site, in turn
    sites: tuple[str, ...]
    why: str
    #: fewest measured repetitions per run, whatever --seconds says
    min_repeats: int = 3


WORKLOADS: dict[str, Spec] = {
    "sb-warm": Spec(
        "SB-CLASSIFIER", ("ju",),
        "crawler-only cost: render and parse caches are full, so the "
        "URL classifier dominates and the simulated web does almost nothing",
    ),
    "bfs-cold": Spec(
        "BFS", ("ju", "be"),
        "simulator floor: render, parse and link resolution on fresh "
        "environments, with no classifier, HNSW or bandit",
    ),
    "sb-durable": Spec(
        "SB-CLASSIFIER", ("be", "be"),
        "writes beside reads: checkpoints every 25 steps, a JSONL trace and "
        "the retry, requeue and dead-letter path under 10% injected faults",
        min_repeats=2,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run is built from, derived from one seed."""

    sites: tuple[str, ...]
    site_seeds: tuple[int, ...]
    crawler_seeds: tuple[int, ...]
    fault_seeds: tuple[int, ...]
    retry_seeds: tuple[int, ...]


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; pick one of {sorted(WORKLOADS)}")
    spec = WORKLOADS[workload]
    sites = spec.sites

    def seeds(tag: str) -> tuple[int, ...]:
        return tuple(derive_seed(seed, tag, workload, str(k)) % 2**31
                     for k in range(len(sites)))

    return Inputs(
        sites=sites,
        site_seeds=tuple(derive_seed(seed, "perfbench-site", site, str(k))
                         for k, site in enumerate(sites)),
        crawler_seeds=seeds("perfbench-crawler"),
        fault_seeds=seeds("perfbench-faults"),
        retry_seeds=seeds("perfbench-retry"),
    )


def build_graph(site: str, site_seed: int) -> WebsiteGraph:
    """The paper-site replica at full scale, generated from ``site_seed``."""
    return generate_site(dataclasses.replace(PAPER_SITES[site], seed=site_seed))


def fault_plan(fault_seed: int) -> FaultPlan:
    return FaultPlan(FaultSpec(rate=FAULT_RATE), seed=fault_seed)


class RequestLog:
    """Proxy over ``env.server`` that timestamps each GET/HEAD arrival.

    Everything else is forwarded to the wrapped server.  It must be
    installed before the crawler creates its client, because
    ``CrawlEnvironment.new_client`` reads ``env.server``.  Timestamps
    are probe-free ``HostClock`` seconds.
    """

    def __init__(self, inner, clock: HostClock) -> None:
        self.inner = inner
        self.clock = clock
        self.arrivals: list[float] = []

    def get(self, url, *args, **kwargs):
        self.arrivals.append(self.clock.now())
        return self.inner.get(url, *args, **kwargs)

    def head(self, url, *args, **kwargs):
        self.arrivals.append(self.clock.now())
        return self.inner.head(url, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def logged_env(graph: WebsiteGraph, clock: HostClock,
               **kwargs) -> tuple[CrawlEnvironment, RequestLog]:
    env = CrawlEnvironment(graph, **kwargs)
    log = RequestLog(env.server, clock)
    env.server = log
    return env, log


class EventCounter:
    """Observer that counts emitted events, by kind."""

    enabled = True

    def __init__(self) -> None:
        self.n_events = 0
        self.by_kind: dict[str, int] = {}

    def on_event(self, event) -> None:
        self.n_events += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1


@dataclass
class CrawlOutcome:
    """One crawl of a repetition, with its output checks applied."""

    site: str
    n_requests: int
    n_targets: int
    abandoned: int
    retries: int
    wait_s: float
    #: crawl start, every request's arrival at the server, crawl end,
    #: in reference seconds (see hostclock.py)
    times: list[float]
    #: probe-free wall seconds of the crawl, as the tracer's spans see them
    wall_s: float
    witness: str
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.times[-1] - self.times[0]

    @property
    def gaps_ms(self) -> list[float]:
        """Time between consecutive request arrivals, in ms."""
        arrivals = self.times[1:-1]
        return [(b - a) * 1e3 for a, b in zip(arrivals, arrivals[1:])]


def _check_crawl(env, log, result, started, ended, budget=None, slack=0,
                 abandoned=0) -> CrawlOutcome:
    """Apply the output checks to one crawl.

    ``slack`` is how far the retries of the one request in flight when
    the budget ran out may carry the crawl past it: the client retries
    without looking at the budget.
    """
    n_requests = result.n_requests
    failures = []
    stray = result.targets - env.target_urls()
    if stray:
        failures.append(f"{len(stray)} counted targets are not site targets")
    if budget is not None and n_requests > budget + slack:
        failures.append(f"{n_requests} requests exceed the budget of {budget}")
    if len(log.arrivals) != n_requests:
        failures.append(
            f"server saw {len(log.arrivals)} requests, ledger has {n_requests}"
        )
    witness = hashlib.sha256(
        ("\n".join(sorted(result.targets)) + f"\n#{n_requests}").encode()
    ).hexdigest()
    ledger = result.info["ledger"]
    return CrawlOutcome(
        site=result.site, n_requests=n_requests,
        n_targets=len(result.targets), abandoned=abandoned,
        retries=ledger.n_retries, wait_s=ledger.wait_seconds,
        times=log.clock.scaled([started, *log.arrivals, ended]).tolist(),
        wall_s=ended - started, witness=witness, failures=failures,
    )


def _timed_crawl(crawler, env, log, budget=None, **kwargs):
    log.arrivals.clear()
    log.clock.probe()
    started = log.clock.now()
    result = crawler.crawl(env, budget=budget, **kwargs)
    ended = log.clock.now()
    log.clock.probe()
    return result, started, ended


class Workload:
    """Set-up plus the crawls of one repetition.

    ``setup`` builds one site graph per entry of the workload's sites
    and returns how long each took, with whatever that graph's
    environment needs before crawling, in reference seconds.  A
    repetition runs ``crawl(i)`` on every graph in turn; ``crawl_hook``
    is a context-manager factory entered around each ``crawl`` call
    (the traced run installs its spans there).
    """

    def __init__(self, inputs: Inputs, work_dir: Path, clock: HostClock) -> None:
        self.inputs = inputs
        self.work_dir = work_dir
        self.clock = clock
        self.graphs: list[WebsiteGraph] = []

    def setup(self) -> list[float]:
        seconds = []
        clock = self.clock
        for site, site_seed in zip(self.inputs.sites, self.inputs.site_seeds):
            clock.probe()
            started = clock.now()
            graph = build_graph(site, site_seed)
            self.prepare(graph)
            self.graphs.append(graph)
            ended = clock.now()
            clock.probe()
            begin, end = clock.scaled([started, ended])
            seconds.append(float(end - begin))
        return seconds

    def prepare(self, graph: WebsiteGraph) -> None:
        """Set-up work beyond generating ``graph``."""

    def crawl(self, index: int, crawl_hook) -> CrawlOutcome:
        raise NotImplementedError

    def run_once(self, crawl_hook) -> list[CrawlOutcome]:
        return [self.crawl(i, crawl_hook) for i in range(len(self.graphs))]


class SBWarm(Workload):
    """SB-CLASSIFIER on environments whose render and parse caches were
    filled by set-up."""

    def __init__(self, inputs: Inputs, work_dir: Path, clock: HostClock) -> None:
        super().__init__(inputs, work_dir, clock)
        self.envs: list[tuple[CrawlEnvironment, RequestLog]] = []

    def prepare(self, graph: WebsiteGraph) -> None:
        env, log = logged_env(graph, self.clock)
        for page in graph.pages():
            self.clock.tick()
            if page.kind is PageKind.HTML and page.redirect_to is None:
                response = log.inner.get(page.url)
                if response.ok and response.body:
                    env.parse(response)
        self.envs.append((env, log))

    def crawl(self, index: int, crawl_hook) -> CrawlOutcome:
        env, log = self.envs[index]
        crawler = SBCrawler(SBConfig(seed=self.inputs.crawler_seeds[index]))
        with crawl_hook():
            result, started, ended = _timed_crawl(crawler, env, log)
        return _check_crawl(env, log, result, started, ended)


class BFSCold(Workload):
    """BFS on a fresh environment of each site in turn."""

    def crawl(self, index: int, crawl_hook) -> CrawlOutcome:
        env, log = logged_env(self.graphs[index], self.clock)
        with crawl_hook():
            result, started, ended = _timed_crawl(BFSCrawler(), env, log)
        return _check_crawl(env, log, result, started, ended)


class SBDurable(Workload):
    """SB-CLASSIFIER on a fresh environment of each site graph, with
    injected faults, retries, periodic checkpoints and a JSONL trace."""

    def crawl(self, index: int, crawl_hook) -> CrawlOutcome:
        graph = self.graphs[index]
        inputs = self.inputs
        directory = Path(tempfile.mkdtemp(prefix="sb-durable-", dir=self.work_dir))
        try:
            counter = EventCounter()
            retry_policy = RetryPolicy(seed=inputs.retry_seeds[index])
            trace_path = directory / "trace.jsonl"
            with JsonlSink(trace_path, meta={"site": graph.name}) as sink:
                env, log = logged_env(
                    graph, self.clock,
                    observer=MultiObserver([counter, sink]),
                    fault_plan=fault_plan(inputs.fault_seeds[index]),
                    retry_policy=retry_policy,
                )
                store = CheckpointStore(directory / "checkpoints")
                checkpointer = CrawlCheckpointer(store, every=CHECKPOINT_EVERY)
                checkpointer.extras["sink"] = sink
                crawler = SBCrawler(SBConfig(seed=inputs.crawler_seeds[index]))
                with crawl_hook():
                    result, started, ended = _timed_crawl(
                        crawler, env, log, BUDGET, checkpoint=checkpointer
                    )
            outcome = _check_crawl(
                env, log, result, started, ended, BUDGET,
                slack=retry_policy.max_attempts - 1,
                abandoned=counter.by_kind.get("request_abandoned", 0),
            )
            outcome.failures.extend(
                _durability_failures(store, trace_path, counter.n_events)
            )
            return outcome
        finally:
            shutil.rmtree(directory)


def _durability_failures(store: CheckpointStore, trace_path: Path,
                         n_events: int) -> list[str]:
    failures = []
    try:
        latest = store.read_latest()
    except CorruptCheckpointError as error:
        latest = None
        failures.append(str(error))
    if latest is None and not failures:
        failures.append("no checkpoint was written")
    elif latest.corrupt_skipped or latest.payload.get("kind") != "sb-crawl":
        failures.append(f"last checkpoint {latest.path.name} did not validate")
    with trace_path.open(encoding="utf-8") as handle:
        n_lines = sum(1 for _ in handle) - 1  # minus the header line
    if n_lines != n_events:
        failures.append(f"trace holds {n_lines} events, {n_events} were emitted")
    return failures


WORKLOAD_CLASSES = {"sb-warm": SBWarm, "bfs-cold": BFSCold, "sb-durable": SBDurable}


def make_workload(name: str, seed: int, work_dir: Path, clock: HostClock) -> Workload:
    return WORKLOAD_CLASSES[name](make_inputs(name, seed), work_dir, clock)
