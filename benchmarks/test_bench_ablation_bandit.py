"""Ablation benchmark: bandit policies (paper Appendix C discussion).

The paper chose AUER over ε-greedy and Thompson Sampling for stability
and because priors are unavailable.  This ablation measures the three
policies' crawl efficiency on three structurally different sites.
"""

import math

from benchmarks.conftest import save_rendered
from repro.analysis.metrics import requests_to_fraction
from repro.core.crawler import SBConfig

POLICIES = ("auer", "epsilon-greedy", "thompson")
SITES = ("ju", "in", "nc")


def test_bench_ablation_bandit(benchmark, bench_cache, results_dir):
    def run():
        rows = {}
        for policy in POLICIES:
            per_site = []
            for site in SITES:
                facts = bench_cache.facts(site)
                result = bench_cache.run(
                    site, "SB-ORACLE",
                    sb_config=SBConfig(bandit_policy=policy),
                )
                per_site.append(
                    requests_to_fraction(
                        result.trace, facts.total_targets, facts.n_available
                    )
                )
            rows[policy] = per_site
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: bandit policy (requests-% to 90% targets)"]
    lines.append("policy           " + "".join(f"{s:>8}" for s in SITES))
    for policy, values in rows.items():
        cells = "".join(
            f"{v:8.1f}" if not math.isinf(v) else "    +inf" for v in values
        )
        lines.append(f"{policy:16} {cells}")
    save_rendered(results_dir, "ablation_bandit", "\n".join(lines))

    def mean(values):
        finite = [v for v in values if not math.isinf(v)]
        return sum(finite) / len(finite) if finite else math.inf

    # AUER (the paper's choice) is competitive with both alternatives.
    auer = mean(rows["auer"])
    assert auer <= mean(rows["epsilon-greedy"]) * 1.3 + 5
    assert auer <= mean(rows["thompson"]) * 1.3 + 5
