"""Crawl-run orchestration with caching.

Building a site environment and running a crawler on it are both
deterministic given the crawl's :class:`~repro.campaign.CrawlSpec`, so
the runner memoises outcomes by spec: Table 2, Table 3, Table 6 and the
figures all reuse the same default-configuration runs, like the paper's
local-replication methodology reuses one stored crawl database across
analyses.  The crawls themselves run on the campaign's worker pool
(:func:`repro.campaign.run_shard`), one shard task per site, which
hands back the site's :class:`~repro.campaign.SiteFacts`, not its graph.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

from repro.baselines import SEEDLESS_CRAWLERS
from repro.campaign import (
    CrawlSpec,
    SerialBackend,
    ShardTask,
    SiteFacts,
    SiteOutcome,
    WorkerPool,
    site_weights,
)
from repro.core.crawler import SBConfig
from repro.webgraph.sites import PAPER_SITES, load_paper_site

#: Row order of the comparison tables (paper's Tables 2–3).
CRAWLER_ORDER: tuple[str, ...] = (
    "SB-ORACLE",
    "SB-CLASSIFIER",
    "FOCUSED",
    "TP-OFF",
    "BFS",
    "DFS",
    "RANDOM",
)


class ResultCache:
    """Memoises crawl outcomes and site facts for one process.

    Crawls run on ``backend`` (default: a :class:`SerialBackend`); the
    outcomes are the same on every backend.  The cache holds no site
    graph, only each site's :class:`SiteFacts`.  With
    ``trace_dir`` set, every *fresh* crawl (cache hits are replays, not
    runs) records its full event stream to
    ``<trace_dir>/<trace_name(spec)>`` — the file ``python -m repro.obs
    report`` consumes (docs/observability.md).
    """

    def __init__(
        self,
        scale: float = 1.0,
        trace_dir: str | Path | None = None,
        backend: WorkerPool | None = None,
    ) -> None:
        self.scale = scale
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.backend = backend if backend is not None else SerialBackend()
        self._outcomes: dict[CrawlSpec, SiteOutcome] = {}
        self._facts: dict[str, SiteFacts] = {}

    # -- sites -------------------------------------------------------------

    def facts(self, site: str) -> SiteFacts:
        """The site's facts, as a crawl brought them back or measured here."""
        if site not in self._facts:
            graph = load_paper_site(site, scale=self.scale)
            self._facts[site] = SiteFacts.measure(site, self.scale, graph)
        return self._facts[site]

    def sites(self) -> list[str]:
        return sorted(PAPER_SITES)

    # -- specs -------------------------------------------------------------

    def spec(
        self,
        site: str,
        crawler_name: str,
        seed: int = 1,
        sb_config: SBConfig | None = None,
        budget: float | None = None,
    ) -> CrawlSpec:
        """The crawl at this cache's scale; a seedless crawler's seed
        collapses to 1, so all its seeds share one memo entry."""
        if crawler_name in SEEDLESS_CRAWLERS:
            seed = 1
        return CrawlSpec(site, crawler_name, seed, self.scale, budget,
                         sb_config)

    def seed_specs(
        self,
        site: str,
        crawler_name: str,
        seeds: tuple[int, ...],
        sb_config: SBConfig | None = None,
    ) -> list[CrawlSpec]:
        """The distinct crawls of a seed sweep: one per seed, or one in
        all for a seedless crawler."""
        return list(dict.fromkeys(
            self.spec(site, crawler_name, seed=s, sb_config=sb_config)
            for s in seeds
        ))

    # -- runs ------------------------------------------------------------

    def run_all(self, specs: Iterable[CrawlSpec]) -> dict[CrawlSpec, SiteOutcome]:
        """The outcome of every spec, crawling only the ones not yet
        memoised: one shard task per site (biggest sites first, so a
        pool finishes together), run on the backend."""
        specs = list(dict.fromkeys(specs))
        by_site: dict[str, list[CrawlSpec]] = {}
        for spec in specs:
            if spec not in self._outcomes:
                by_site.setdefault(spec.site, []).append(spec)
        weights = site_weights(tuple(by_site))
        sites = sorted(by_site, key=lambda s: (-weights.get(s, 1.0), s))
        tasks = [
            ShardTask(
                shard_id=i,
                specs=tuple(by_site[site]),
                trace_dir=str(self.trace_dir) if self.trace_dir else None,
            )
            for i, site in enumerate(sites)
        ]
        shards = {
            shard.shard_id: shard
            for shard in (self.backend.run_tasks(tasks) if tasks else [])
        }
        interrupted = False
        for task in tasks:
            shard = shards[task.shard_id]
            self._outcomes.update(zip(task.specs, shard.sites))
            self._facts.update((f.site, f) for f in shard.facts)
            interrupted |= shard.status != "completed"
        if interrupted:
            # The backend absorbed a Ctrl-C; the finished crawls stay
            # memoised, and the interrupt goes on to the caller.
            raise KeyboardInterrupt
        return {spec: self._outcomes[spec] for spec in specs}

    def run(
        self,
        site: str,
        crawler_name: str,
        seed: int = 1,
        sb_config: SBConfig | None = None,
        budget: float | None = None,
    ) -> SiteOutcome:
        """One crawl's outcome (``run_all`` of a single spec)."""
        spec = self.spec(site, crawler_name, seed, sb_config, budget)
        return self.run_all([spec])[spec]


_DEFAULT_CACHES: dict[float, ResultCache] = {}


def default_cache(scale: float = 1.0) -> ResultCache:
    """Process-wide cache shared by tables/figures at the same scale."""
    cache = _DEFAULT_CACHES.get(scale)
    if cache is None:
        cache = ResultCache(scale=scale)
        _DEFAULT_CACHES[scale] = cache
    return cache


def average_metric(
    outcomes: list[SiteOutcome],
    metric: Callable[[SiteOutcome], float],
) -> float:
    """Mean of a metric over runs; ∞ if any run never reaches it (the
    paper reports +∞ in that case)."""
    values = [metric(o) for o in outcomes]
    if any(v == float("inf") for v in values):
        return float("inf")
    return sum(values) / len(values)
