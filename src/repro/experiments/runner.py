"""Crawl-run orchestration with caching.

Building a site environment and running a crawler on it are both
deterministic given (site, scale, crawler-key, seed), so the runner
memoises them: Table 2, Table 3, Table 6 and the figures all reuse the
same default-configuration runs, like the paper's local-replication
methodology reuses one stored crawl database across analyses.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.baselines import make_crawler
from repro.core.base import Crawler, CrawlResult
from repro.core.crawler import SBConfig
from repro.http.environment import CrawlEnvironment
from repro.obs.sinks import JsonlSink
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
    """Memoises environments and crawl results for one process.

    With ``trace_dir`` set, every *fresh* crawl (cache hits are replays,
    not runs) records its full event stream to
    ``<trace_dir>/<site>-<crawler>-s<seed>.jsonl`` — the file
    ``python -m repro.obs report`` consumes (docs/observability.md).
    """

    def __init__(
        self, scale: float = 1.0, trace_dir: str | Path | None = None
    ) -> None:
        self.scale = scale
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._envs: dict[str, CrawlEnvironment] = {}
        self._results: dict[tuple, CrawlResult] = {}

    # -- environments ------------------------------------------------------

    def env(self, site: str) -> CrawlEnvironment:
        cached = self._envs.get(site)
        if cached is None:
            cached = CrawlEnvironment(load_paper_site(site, scale=self.scale))
            self._envs[site] = cached
        return cached

    def sites(self) -> list[str]:
        return sorted(PAPER_SITES)

    # -- runs ------------------------------------------------------------

    def run(
        self,
        site: str,
        crawler_name: str,
        seed: int = 1,
        sb_config: SBConfig | None = None,
        budget: float | None = None,
        config_key: str = "default",
    ) -> CrawlResult:
        key = (site, crawler_name, seed, config_key, budget)
        cached = self._results.get(key)
        if cached is None:
            crawler = make_crawler(crawler_name, seed=seed, sb_config=sb_config)
            env = self.env(site)
            if self.trace_dir is None:
                cached = crawler.crawl(env, budget=budget)
            else:
                cached = self._run_traced(
                    env, crawler, site, crawler_name, seed, budget
                )
            self._results[key] = cached
        return cached

    def _run_traced(
        self,
        env: CrawlEnvironment,
        crawler: Crawler,
        site: str,
        crawler_name: str,
        seed: int,
        budget: float | None,
    ) -> CrawlResult:
        """One crawl with a JSONL event sink as the environment observer
        (instruments every crawler's fetch stream, baselines included)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{site}-{crawler_name}-s{seed}.jsonl"
        meta = {"crawler": crawler_name, "site": site, "seed": seed,
                "scale": self.scale}
        previous = env.observer
        with JsonlSink(path, meta=meta) as sink:
            env.observer = sink
            try:
                return crawler.crawl(env, budget=budget)
            finally:
                env.observer = previous

    def run_seeds(
        self,
        site: str,
        crawler_name: str,
        seeds: tuple[int, ...],
        sb_config: SBConfig | None = None,
        config_key: str = "default",
    ) -> list[CrawlResult]:
        """One run per seed for stochastic crawlers, one total otherwise."""
        if crawler_name in ("BFS", "DFS", "TP-OFF", "OMNISCIENT", "FOCUSED"):
            seeds = seeds[:1]  # deterministic crawlers: one run suffices
        return [
            self.run(site, crawler_name, seed=s, sb_config=sb_config,
                     config_key=config_key)
            for s in seeds
        ]


_DEFAULT_CACHES: dict[float, ResultCache] = {}


def default_cache(scale: float = 1.0) -> ResultCache:
    """Process-wide cache shared by tables/figures at the same scale."""
    cache = _DEFAULT_CACHES.get(scale)
    if cache is None:
        cache = ResultCache(scale=scale)
        _DEFAULT_CACHES[scale] = cache
    return cache


def average_metric(
    results: list[CrawlResult],
    metric: Callable[[CrawlResult], float],
) -> float:
    """Mean of a metric over runs; ∞ if any run never reaches it (the
    paper reports +∞ in that case)."""
    values = [metric(r) for r in results]
    if any(v == float("inf") for v in values):
        return float("inf")
    return sum(values) / len(values)
