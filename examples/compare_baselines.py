#!/usr/bin/env python3
"""Figure 4-style comparison: run all seven crawlers on one site and plot
(ASCII) the targets-vs-requests curves.

Run:  python examples/compare_baselines.py [site] [scale]
"""

import sys

from repro import CrawlEnvironment, load_paper_site
from repro.analysis.metrics import requests_to_fraction, targets_vs_requests_curve
from repro.experiments.report import ascii_curve
from repro.baselines import make_crawler
from repro.experiments.runner import CRAWLER_ORDER


def main(site: str = "in", scale: float = 0.4) -> None:
    env = CrawlEnvironment(load_paper_site(site, scale=scale))
    total, avail = env.total_targets(), env.n_available()
    print(f"site {site}: {avail} pages, {total} targets\n")

    print(f"{'crawler':14} {'requests':>9} {'targets':>8} {'req-to-90%':>11}")
    curves = {}
    for name in CRAWLER_ORDER:
        crawler = make_crawler(name, seed=1)
        result = crawler.crawl(env)
        metric = requests_to_fraction(result.trace, total, avail)
        metric_text = f"{metric:.1f}%" if metric != float("inf") else "never"
        print(f"{name:14} {result.n_requests:9d} {result.n_targets:8d} "
              f"{metric_text:>11}")
        curves[name] = targets_vs_requests_curve(result.trace)

    print()
    for name in ("SB-CLASSIFIER", "BFS"):
        xs, ys = curves[name]
        print(ascii_curve(xs.tolist(), ys.tolist(), height=10,
                          title=f"{name}: cumulative targets vs requests"))
        print()


if __name__ == "__main__":
    site = sys.argv[1] if len(sys.argv) > 1 else "in"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    main(site, scale)
