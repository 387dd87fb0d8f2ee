"""Incremental revisit crawling (the paper's stated future work).

The paper's crawler is single-shot; its conclusion proposes extending it
with *incremental revisits* — re-crawling pages to pick up newly
published statistics datasets, "combining the knowledge acquired by our
RL-agent with existing re-crawling strategies" (Sec. 6).  This package
implements that extension over the same substrate:

* :class:`EvolvingSite` — a website that changes over simulated time:
  pages are edited at page-specific Poisson rates and catalog pages
  publish new targets;
* revisit policies: uniform round-robin, estimated-change-rate
  (Cho & Garcia-Molina style), Beta-Bernoulli Thompson Sampling
  (Schulam & Muslea 2023), and a tag-path-group policy that reuses the
  SB crawler's structural grouping;
* :func:`simulate_revisits` — an epoch-based harness on the crawl kernel,
  measuring how many newly published targets each policy discovers.
"""

from repro.revisit.evolution import EvolvingSite, PageChange
from repro.revisit.policies import (
    ChangeRatePolicy,
    RevisitPolicy,
    TagPathGroupPolicy,
    ThompsonRevisitPolicy,
    UniformRevisitPolicy,
)
from repro.revisit.harness import RevisitReport, simulate_revisits

__all__ = [
    "EvolvingSite",
    "PageChange",
    "RevisitPolicy",
    "UniformRevisitPolicy",
    "ChangeRatePolicy",
    "ThompsonRevisitPolicy",
    "TagPathGroupPolicy",
    "RevisitReport",
    "simulate_revisits",
]
