"""Fault matrix: recall and cost versus injected fault rate.

Runs one crawler over the same site profile at increasing fault-
injection rates (``repro.http.faults``) with the retry policy enabled,
and tabulates how recall degrades and how much extra cost (requests,
retries, abandoned URLs) the fault/recovery stack introduces.  The
rate-0 column is the control: the identical stack with the injector
disarmed.

Unlike the paper tables this is a robustness artefact, not a paper
reproduction — it validates the fault-model contract of
docs/architecture.md: graceful degradation (recall falls smoothly, the
crawl never crashes) and bounded cost (retries are budgeted, abandoned
URLs are dead-lettered, not retried forever).

Every run is deterministic: the fault schedule derives from
``derive_seed(seed, "fault-matrix", site, rate)`` and retry jitter from
the policy seed, so the whole table is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_table
from repro.baselines import make_crawler
from repro.http.client import RetryPolicy
from repro.http.environment import CrawlEnvironment
from repro.http.faults import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsObserver
from repro.utils.rng import derive_seed
from repro.webgraph.sites import load_paper_site

#: Default injected fault rates (fraction of requests tampered with).
DEFAULT_FAULT_RATES: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)


@dataclass
class FaultMatrixResult:
    """Per-rate robustness numbers for one (crawler, site) pair."""

    crawler: str
    site: str
    rates: list[float]
    recall_pct: list[float]
    requests: list[float]
    retries: list[float]
    abandoned: list[float]
    dead_letters: list[float]
    faults_injected: list[float]

    def render(self) -> str:
        columns = [f"rate={rate:g}" for rate in self.rates]
        return render_table(
            f"Fault matrix: {self.crawler} on '{self.site}'",
            columns,
            [
                ("Recall (% targets)", list(self.recall_pct)),
                ("Requests", list(self.requests)),
                ("Retries", list(self.retries)),
                ("Abandoned", list(self.abandoned)),
                ("Dead letters", list(self.dead_letters)),
                ("Faults injected", list(self.faults_injected)),
            ],
        )


def _metric(observer: MetricsObserver, name: str) -> float:
    instrument = observer.registry.get(name)
    return float(instrument.value) if instrument is not None else 0.0


def compute_fault_matrix(
    config: ExperimentConfig | None = None,
    *,
    site: str = "cl",
    crawler: str = "BFS",
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    seed: int = 1,
) -> FaultMatrixResult:
    """Crawl ``site`` once per fault rate and tabulate recall vs cost.

    The site is generated once; each rate crawls it in a fresh
    environment, since fault injection changes server behaviour and
    no memoised clean run can stand in for a cell.
    """
    config = config or ExperimentConfig()
    graph = load_paper_site(site, scale=config.scale)
    recall_pct: list[float] = []
    requests: list[float] = []
    retries: list[float] = []
    abandoned: list[float] = []
    dead_letters: list[float] = []
    faults_injected: list[float] = []

    for rate in rates:
        observer = MetricsObserver()
        fault_plan = None
        if rate > 0:
            fault_plan = FaultPlan(
                FaultSpec(rate=rate),
                seed=derive_seed(seed, "fault-matrix", site, f"{rate:g}"),
            )
        env = CrawlEnvironment(
            graph,
            observer=observer,
            fault_plan=fault_plan,
            retry_policy=RetryPolicy(seed=seed),
        )
        result = make_crawler(crawler, seed=seed).crawl(env)
        total = env.total_targets() or 1
        recall_pct.append(100.0 * result.n_targets / total)
        requests.append(float(result.n_requests))
        retries.append(_metric(observer, "retries_total"))
        abandoned.append(_metric(observer, "requests_abandoned"))
        dead_letters.append(float(result.n_dead_letters))
        faults_injected.append(_metric(observer, "faults_injected"))

    return FaultMatrixResult(
        crawler=crawler,
        site=site,
        rates=list(rates),
        recall_pct=recall_pct,
        requests=requests,
        retries=retries,
        abandoned=abandoned,
        dead_letters=dead_letters,
        faults_injected=faults_injected,
    )
