"""Table 3: fraction of non-target volume retrieved before reaching 90 %
of total target volume, per crawler/site."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import non_target_volume_fraction, site_non_target_bytes
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
class Table3Result:
    sites: list[str]
    measured: dict[str, list[float]]

    def render(self) -> str:
        rows: list[tuple[str, list[float | None]]] = []
        for crawler in CRAWLER_ORDER:
            rows.append((crawler, list(self.measured[crawler])))
            paper = paperdata.TABLE3_VOLUME.get(crawler)
            if paper is not None:
                paper_row = [
                    paper[paperdata.SITE_ORDER.index(site)] for site in self.sites
                ]
                rows.append((f"  (paper {crawler})", paper_row))
        return render_table(
            "Table 3: % of non-target volume before 90% of target volume",
            self.sites,
            rows,
        )


def compute_table3(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
) -> Table3Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    sites = list(config.sites or cache.sites())
    measured: dict[str, list[float]] = {name: [] for name in CRAWLER_ORDER}

    for site in sites:
        env = cache.env(site)
        total_target_bytes = env.total_target_bytes()
        total_non_target = site_non_target_bytes(env.graph)
        for crawler in CRAWLER_ORDER:
            results = cache.run_seeds(site, crawler, config.seeds)
            value = average_metric(
                results,
                lambda r: non_target_volume_fraction(
                    r.trace, total_target_bytes, total_non_target
                ),
            )
            measured[crawler].append(value)

    return Table3Result(sites=sites, measured=measured)
