"""Table 2: % of requests to retrieve 90 % of targets, per crawler/site,
plus the early-stopping rows (saved requests % / lost targets %)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import requests_to_fraction
from repro.core.crawler import SBConfig
import repro.experiments.paperdata as paperdata
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_table
from repro.experiments.runner import (
    CRAWLER_ORDER,
    ResultCache,
    average_metric,
    default_cache,
)


@dataclass
class Table2Result:
    sites: list[str]
    #: crawler -> per-site measured metric
    measured: dict[str, list[float]]
    saved_requests: list[float]
    lost_targets: list[float]

    def render(self) -> str:
        rows: list[tuple[str, list[float | None]]] = []
        for crawler in CRAWLER_ORDER:
            rows.append((crawler, list(self.measured[crawler])))
            paper = paperdata.TABLE2_REQUESTS.get(crawler)
            if paper is not None:
                paper_row = [
                    paper[paperdata.SITE_ORDER.index(site)] for site in self.sites
                ]
                rows.append((f"  (paper {crawler})", paper_row))
        rows.append(("Saved req. (ES)", list(self.saved_requests)))
        rows.append(("Lost targets (ES)", list(self.lost_targets)))
        return render_table(
            "Table 2: % requests to retrieve 90% of targets "
            "(+ early-stopping savings)",
            self.sites,
            rows,
        )


def compute_table2(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
) -> Table2Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    sites = list(config.sites or cache.sites())
    measured: dict[str, list[float]] = {name: [] for name in CRAWLER_ORDER}
    saved_requests: list[float] = []
    lost_targets: list[float] = []

    seed = config.seeds[0]
    specs = {
        (site, crawler): cache.seed_specs(site, crawler, config.seeds)
        for site in sites
        for crawler in CRAWLER_ORDER
    }
    # Early stopping: SB-CLASSIFIER with the monitor vs without.
    base_specs = {site: cache.spec(site, "SB-CLASSIFIER", seed) for site in sites}
    es_specs = {
        site: cache.spec(site, "SB-CLASSIFIER", seed,
                         sb_config=SBConfig(early_stopping=True))
        for site in sites
    }
    outcomes = cache.run_all([
        *(s for group in specs.values() for s in group),
        *base_specs.values(),
        *es_specs.values(),
    ])

    for site in sites:
        facts = cache.facts(site)
        total, avail = facts.total_targets, facts.n_available
        for crawler in CRAWLER_ORDER:
            value = average_metric(
                [outcomes[s] for s in specs[site, crawler]],
                lambda o: requests_to_fraction(o.trace, total, avail),
            )
            measured[crawler].append(value)

        base_run = outcomes[base_specs[site]]
        es_run = outcomes[es_specs[site]]
        if base_run.n_requests > 0:
            saved = 100.0 * max(
                0, base_run.n_requests - es_run.n_requests
            ) / base_run.n_requests
        else:
            saved = 0.0
        if base_run.n_targets > 0:
            lost = 100.0 * max(
                0, base_run.n_targets - es_run.n_targets
            ) / base_run.n_targets
        else:
            lost = 0.0
        saved_requests.append(saved)
        lost_targets.append(lost)

    return Table2Result(
        sites=sites,
        measured=measured,
        saved_requests=saved_requests,
        lost_targets=lost_targets,
    )
