"""The OMNISCIENT upper-bound crawler (Sec. 4.3).

Knows the full set of target URLs V* before the crawl starts and
fetches them one after the other — no navigation, no discovery cost.
Since optimally covering all targets through the link graph is NP-hard
(Prop. 4), this unreachable bound is the paper's efficiency ceiling.
"""

from __future__ import annotations

from repro.baselines.simple import BFSCrawler


class OmniscientCrawler(BFSCrawler):
    """Fetches the ground-truth target list directly, in URL order.

    A FIFO seeded with V* instead of the root that follows no link;
    it needs no robots.txt, since it never discovers a URL.
    """

    name = "OMNISCIENT"
    checkpoint_kind = "omniscient-crawl"
    respect_robots = False

    def seeds(self, kernel) -> list[str]:
        return sorted(kernel.env.target_urls())

    def on_link(self, kernel, link, source: str, parsed) -> bool:
        return False
