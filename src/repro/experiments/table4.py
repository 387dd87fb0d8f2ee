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
    site_non_target_bytes,
)
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


def _run_config(
    cache: ResultCache, site: str, sb_config: SBConfig, config_key: str
) -> tuple[float, float]:
    env = cache.env(site)
    result = cache.run(
        site, "SB-ORACLE", seed=sb_config.seed,
        sb_config=sb_config, config_key=config_key,
    )
    req = requests_to_fraction(result.trace, env.total_targets(), env.n_available())
    vol = non_target_volume_fraction(
        result.trace, env.total_target_bytes(), site_non_target_bytes(env.graph)
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
    seed = config.seeds[0]
    rows: dict[str, list[tuple[float, float]]] = {}

    for label, alpha in ALPHA_VALUES:
        sb_config = SBConfig(alpha=alpha, seed=seed)
        rows[f"alpha={label}"] = [
            _run_config(cache, site, sb_config, f"alpha={label}")
            for site in site_list
        ]
    for n in N_VALUES:
        sb_config = SBConfig(ngram_n=n, seed=seed)
        rows[f"n={n}"] = [
            _run_config(cache, site, sb_config, f"n={n}") for site in site_list
        ]
    for theta in THETA_VALUES:
        sb_config = SBConfig(theta=theta, seed=seed)
        rows[f"theta={theta}"] = [
            _run_config(cache, site, sb_config, f"theta={theta}")
            for site in site_list
        ]
    return Table4Result(sites=site_list, rows=rows)
