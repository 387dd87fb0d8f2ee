"""Baseline crawlers of the paper's evaluation (Sec. 4.3).

* :class:`BFSCrawler`, :class:`DFSCrawler`, :class:`RandomCrawler` —
  the simple frontier disciplines;
* :class:`OmniscientCrawler` — knows every target URL in advance
  (unreachable upper bound, since optimal crawling is NP-hard);
* :class:`FocusedCrawler` — classic focused crawling with a
  priority-queue frontier ordered by a link classifier;
* :class:`TPOffCrawler` — the offline tag-path crawler (ACEBot-style),
  with the paper's oracle benefit during the first 3 k pages;
* :class:`TresCrawler` — the topical RL crawler adaptation with its
  three "unfair advantages".

:func:`make_crawler` builds any of them, or the SB crawler, by its
table name (``CRAWLER_NAMES``).
"""

from repro.baselines.simple import BFSCrawler, DFSCrawler, RandomCrawler
from repro.baselines.omniscient import OmniscientCrawler
from repro.baselines.focused import FocusedCrawler
from repro.baselines.tpoff import TPOffCrawler
from repro.baselines.tres import TresCrawler
from repro.baselines.registry import CRAWLER_NAMES, make_crawler

__all__ = [
    "BFSCrawler",
    "DFSCrawler",
    "RandomCrawler",
    "OmniscientCrawler",
    "FocusedCrawler",
    "TPOffCrawler",
    "TresCrawler",
    "CRAWLER_NAMES",
    "make_crawler",
]
