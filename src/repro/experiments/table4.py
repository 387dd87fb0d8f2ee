"""Table 4: hyper-parameter study on α, n and θ (SB-ORACLE, 11 sites).

For each hyper-parameter value, reports the pair
(requests-% to 90 % targets | non-target-volume-% to 90 % target volume)
on the fully-crawled websites, like the paper's Table 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.metrics import (
    non_target_volume_fraction,
    requests_to_fraction,
)
from repro.analysis.trace import CrawlTrace
from repro.campaign import SiteFacts
from repro.core.crawler import SBConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_pairs_table
from repro.experiments.runner import ResultCache, default_cache
from repro.webgraph.sites import FULLY_CRAWLED_SITES

#: The studied values (paper Sec. 4.6).
ALPHA_VALUES: tuple[tuple[str, float], ...] = (
    ("0.1", 0.1),
    ("2sqrt2", 2.0 * math.sqrt(2.0)),
    ("30", 30.0),
)
N_VALUES: tuple[int, ...] = (1, 2, 3)
THETA_VALUES: tuple[float, ...] = (0.55, 0.75, 0.95)


@dataclass
class Table4Result:
    sites: list[str]
    #: row label -> per-site (requests %, volume %) pairs
    rows: dict[str, list[tuple[float, float]]]

    def render(self) -> str:
        return render_pairs_table(
            "Table 4: hyper-parameter study (requests% | non-target volume%), "
            "SB-ORACLE",
            self.sites,
            [(label, values) for label, values in self.rows.items()],
        )


def _pair(facts: SiteFacts, trace: CrawlTrace) -> tuple[float, float]:
    req = requests_to_fraction(trace, facts.total_targets, facts.n_available)
    vol = non_target_volume_fraction(
        trace, facts.total_target_bytes, facts.site_non_target_bytes
    )
    return req, vol


def compute_table4(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
    sites: tuple[str, ...] | None = None,
) -> Table4Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    site_list = list(sites or config.sites or FULLY_CRAWLED_SITES)
    configs = {
        **{f"alpha={label}": SBConfig(alpha=alpha)
           for label, alpha in ALPHA_VALUES},
        **{f"n={n}": SBConfig(ngram_n=n) for n in N_VALUES},
        **{f"theta={theta}": SBConfig(theta=theta) for theta in THETA_VALUES},
    }
    specs = {
        (label, site): cache.spec(
            site, "SB-ORACLE", config.seeds[0], sb_config=sb_config
        )
        for label, sb_config in configs.items()
        for site in site_list
    }
    outcomes = cache.run_all(specs.values())

    rows = {
        label: [
            _pair(cache.facts(site), outcomes[specs[label, site]].trace)
            for site in site_list
        ]
        for label in configs
    }
    return Table4Result(sites=site_list, rows=rows)
