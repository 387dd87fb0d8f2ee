"""Table 6: mean and STD of the non-zero action rewards per site.

The paper uses this table to show rewards are heavy-tailed across tag
path groups (STD far above the mean on most sites), which motivates the
pragmatic α = 2√2 choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.experiments.paperdata as paperdata
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_table
from repro.experiments.runner import ResultCache, default_cache


@dataclass
class Table6Result:
    sites: list[str]
    means: list[float]
    stds: list[float]

    def render(self) -> str:
        paper_means = [
            paperdata.TABLE6_MEAN[paperdata.SITE_ORDER.index(s)] for s in self.sites
        ]
        paper_stds = [
            paperdata.TABLE6_STD[paperdata.SITE_ORDER.index(s)] for s in self.sites
        ]
        return render_table(
            "Table 6: mean/STD of non-zero action rewards",
            self.sites,
            [
                ("Mean", list(self.means)),
                ("  (paper mean)", paper_means),
                ("Std", list(self.stds)),
                ("  (paper std)", paper_stds),
            ],
        )


def compute_table6(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
) -> Table6Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    sites = list(config.sites or cache.sites())
    means: list[float] = []
    stds: list[float] = []
    for site in sites:
        result = cache.run(site, "SB-CLASSIFIER", seed=config.seeds[0])
        means.append(result.info["reward_mean_nonzero"])
        stds.append(result.info["reward_std_nonzero"])
    return Table6Result(sites=sites, means=means, stds=stds)
