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

#: The crawlers :func:`make_crawler` builds without a seed: every seed
#: gives the same crawl, so a seed sweep runs each of them once.
SEEDLESS_CRAWLERS: tuple[str, ...] = ("BFS", "DFS", "OMNISCIENT")


def crawler_sb_config(name: str, seed: int,
                      sb_config: SBConfig | None = None) -> SBConfig | None:
    """The SB hyper-parameters :func:`make_crawler` builds ``name``
    with: ``sb_config`` (default ``SBConfig()``) with its seed and
    oracle flag overridden, or None for a crawler that takes none."""
    if name not in ("SB-ORACLE", "SB-CLASSIFIER"):
        return None
    return replace(sb_config or SBConfig(),
                   use_oracle=name == "SB-ORACLE", seed=seed)


def make_crawler(name: str, seed: int = 1,
                 sb_config: SBConfig | None = None) -> Crawler:
    """Instantiate a crawler by its table name; ``sb_config`` carries
    the SB hyper-parameters (see :func:`crawler_sb_config`)."""
    config = crawler_sb_config(name, seed, sb_config)
    if config is not None:
        return SBCrawler(config)
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
