"""The crawler registry: every crawler of the evaluation, by table name.

The one crawler factory.  It lives in ``repro.baselines`` because that
package ranks below both of its users in the layer diagram: the paper
tables (``repro.experiments``) and the campaign workers
(``repro.campaign``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.focused import FocusedCrawler
from repro.baselines.omniscient import OmniscientCrawler
from repro.baselines.simple import BFSCrawler, DFSCrawler, RandomCrawler
from repro.baselines.tpoff import TPOffCrawler
from repro.baselines.tres import TresCrawler
from repro.core.base import Crawler
from repro.core.crawler import SBConfig, SBCrawler

#: Every registered crawler name.
CRAWLER_NAMES: tuple[str, ...] = (
    "SB-ORACLE",
    "SB-CLASSIFIER",
    "FOCUSED",
    "TP-OFF",
    "BFS",
    "DFS",
    "RANDOM",
    "OMNISCIENT",
    "TRES",
)


def make_crawler(name: str, seed: int = 1,
                 sb_config: SBConfig | None = None) -> Crawler:
    """Instantiate a crawler by its table name; ``sb_config`` carries
    the SB hyper-parameters (its seed and oracle flag are overridden)."""
    base = sb_config or SBConfig()
    if name == "SB-ORACLE":
        return SBCrawler(replace(base, use_oracle=True, seed=seed))
    if name == "SB-CLASSIFIER":
        return SBCrawler(replace(base, use_oracle=False, seed=seed))
    if name == "FOCUSED":
        return FocusedCrawler(seed=seed)
    if name == "TP-OFF":
        return TPOffCrawler(bootstrap_pages=300, seed=seed)
    if name == "BFS":
        return BFSCrawler()
    if name == "DFS":
        return DFSCrawler()
    if name == "RANDOM":
        return RandomCrawler(seed=seed)
    if name == "OMNISCIENT":
        return OmniscientCrawler()
    if name == "TRES":
        return TresCrawler(seed=seed)
    raise ValueError(f"unknown crawler: {name!r}")
