"""Benchmark: the TRES baseline on the smallest fully-crawled sites.

The paper could only run TRES on small sites (its tree expansion
re-evaluates the whole frontier each step and it exceeds 1 minute per
request on anything larger); even with its three unfair advantages it
fails to match SB-CLASSIFIER on 9 of 10 sites (Sec. 4.5).  We reproduce
both the comparison and the cost blow-up measurement.
"""

import math
import time

from benchmarks.conftest import BENCH_SCALE, save_rendered
from repro.analysis.metrics import requests_to_fraction
from repro.baselines import make_crawler
from repro.http.environment import CrawlEnvironment
from repro.webgraph.sites import load_paper_site

SITES = ("qa", "cl", "cn", "be")


def test_bench_tres_comparison(benchmark, bench_cache, results_dir):
    def run():
        rows = []
        for site in SITES:
            facts = bench_cache.facts(site)
            total, avail = facts.total_targets, facts.n_available
            env = CrawlEnvironment(load_paper_site(site, scale=BENCH_SCALE))
            started = time.perf_counter()
            tres = make_crawler("TRES", seed=1).crawl(env)
            tres_seconds = time.perf_counter() - started
            sb = bench_cache.run(site, "SB-CLASSIFIER", seed=1)
            rows.append(
                {
                    "site": site,
                    "tres": requests_to_fraction(tres.trace, total, avail),
                    "sb": requests_to_fraction(sb.trace, total, avail),
                    "tres_cpu_ms_per_request": 1000
                    * tres_seconds / max(tres.n_requests, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["TRES vs SB-CLASSIFIER (requests-% to 90% targets; CPU/request)"]
    for row in rows:
        tres_text = (
            f"{row['tres']:.1f}" if not math.isinf(row["tres"]) else "+inf"
        )
        lines.append(
            f"  {row['site']}: TRES={tres_text:>6}  SB={row['sb']:6.1f}  "
            f"TRES cpu={row['tres_cpu_ms_per_request']:.1f} ms/request"
        )
    save_rendered(results_dir, "tres_comparison", "\n".join(lines))

    # Paper shape: TRES loses to SB-CLASSIFIER on (almost) every site.
    sb_wins = sum(
        1 for row in rows
        if row["sb"] < row["tres"] or math.isinf(row["tres"])
    )
    assert sb_wins >= len(SITES) - 1
    # And TRES's per-request CPU is orders of magnitude above the other
    # crawlers' (the paper's scalability failure).
    assert max(row["tres_cpu_ms_per_request"] for row in rows) > 1.0
