"""TP-OFF: the offline-trained, tag-path-based crawler (Sec. 4.3).

Adaptation of ACEBot [Faheem & Senellart 2015] to target retrieval,
reproduced as the paper describes it:

1. *Bootstrap phase*: crawl the first ``bootstrap_pages`` (3 000 in the
   paper) breadth-first, grouping the tag paths of followed links with
   the same clustering as SB (Sec. 3.1).  Each fetched page's *benefit*
   — the true number of targets behind its links, given by an oracle,
   the paper's deliberate unfair advantage — is credited to the group
   of the link that led to the page.
2. *Exploitation phase*: the frontier becomes a priority queue over tag
   path groups ordered by average benefit; links whose group was never
   seen during bootstrap get a fixed benefit of 0.

Being trained *offline* on an early fragment of the site, TP-OFF is the
paper's ablation of SB-CLASSIFIER's online learning.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.core.actions import ActionSpace
from repro.core.base import Crawler
from repro.core.tagpath import TagPathVectorizer
from repro.core.url_classifier import UrlClass
from repro.http.environment import CrawlEnvironment
from repro.webgraph.model import PageKind


class TPOffCrawler(Crawler):
    """Offline tag-path crawler with oracle benefits in its first phase."""

    name = "TP-OFF"
    checkpoint_kind = "tpoff-crawl"

    def __init__(
        self,
        bootstrap_pages: int = 3000,
        theta: float = 0.75,
        ngram_n: int = 2,
        seed: int = 0,
    ) -> None:
        self.bootstrap_pages = bootstrap_pages
        self.theta = theta
        self.ngram_n = ngram_n
        self.seed = seed

    # -- oracle benefit (paper: provided "as if given by an oracle") ------

    @staticmethod
    def _page_benefit(env: CrawlEnvironment, url: str, target_urls: set[str]) -> int:
        page = env.graph.get(url)
        if page is None or page.kind is not PageKind.HTML:
            return 0
        return sum(1 for link in page.links if link.url in target_urls)

    # -- frontier ---------------------------------------------------------

    def start(self, kernel) -> None:
        self._vectorizer = TagPathVectorizer(n=self.ngram_n)
        self._actions = ActionSpace(self._vectorizer, theta=self.theta, seed=self.seed)
        # oracle access, bootstrap phase only
        self._target_urls = kernel.env.target_urls()
        #: bootstrap frontier: FIFO of (url, group of the inbound link)
        self._queue: deque[tuple[str, int | None]] = deque()
        #: benefit accumulators per tag-path group
        self._benefit_sum: dict[int, float] = {}
        self._benefit_count: dict[int, int] = {}
        #: exploitation frontier: heap keyed by -avg benefit of the group
        self._heap: list[tuple[float, int, str]] = []
        self._counter = 0
        self._fetched_html = 0
        self._exploiting = False

    def _group_priority(self, group: int | None) -> float:
        if group is None or group not in self._benefit_count:
            return 0.0  # unseen groups: fixed benefit 0
        return self._benefit_sum[group] / self._benefit_count[group]

    def push(self, kernel, url: str, group: int | None) -> None:
        if self._exploiting:
            self._counter += 1
            heapq.heappush(
                self._heap, (-self._group_priority(group), self._counter, url)
            )
        else:
            self._queue.append((url, group))

    def has_next(self, kernel) -> bool:
        if not self._exploiting and (
            not self._queue or self._fetched_html >= self.bootstrap_pages
        ):
            # Phase transition: rank the remaining bootstrap frontier by
            # the learned group priorities.
            self._exploiting = True
            queue, self._queue = self._queue, deque()
            for url, group in queue:
                self.push(kernel, url, group)
        return bool(self._queue or self._heap)

    def next_url(self, kernel) -> tuple[str, int | None]:
        if self._queue:
            return self._queue.popleft()
        return heapq.heappop(self._heap)[2], None

    # -- pages and links ----------------------------------------------------

    def on_response(self, kernel, url: str, group, kind: UrlClass, parsed) -> None:
        if kind is not UrlClass.HTML:
            return
        self._fetched_html += 1
        if not self._exploiting and group is not None:
            benefit = float(self._page_benefit(kernel.env, url, self._target_urls))
            self._benefit_sum[group] = self._benefit_sum.get(group, 0.0) + benefit
            self._benefit_count[group] = self._benefit_count.get(group, 0) + 1

    def on_link(self, kernel, link, source: str, parsed) -> bool:
        self.push(kernel, link.url, self._actions.assign(link.tag_path))
        return False

    # -- result and checkpointing (repro.checkpoint) -------------------------

    def result_info(self, kernel) -> dict:
        return {"n_groups": self._actions.n_actions}

    def snapshot_policy(self, kernel) -> dict:
        return {
            "frontier": {
                "queue": [list(entry) for entry in self._queue],
                "heap": [list(entry) for entry in self._heap],
                "counter": self._counter,
                "exploiting": self._exploiting,
            },
            "benefits": [
                [group, self._benefit_sum[group], count]
                for group, count in self._benefit_count.items()
            ],
            "fetched_html": self._fetched_html,
            "actions": self._actions.snapshot_state(),
            "vectorizer": self._vectorizer.snapshot_state(),
        }

    def restore_policy(self, kernel, components: dict) -> None:
        frontier = components["frontier"]
        self._queue = deque(tuple(entry) for entry in frontier["queue"])
        self._heap = [tuple(entry) for entry in frontier["heap"]]
        self._counter = frontier["counter"]
        self._exploiting = frontier["exploiting"]
        self._benefit_sum = {g: total for g, total, _ in components["benefits"]}
        self._benefit_count = {g: n for g, _, n in components["benefits"]}
        self._fetched_html = components["fetched_html"]
        self._actions.restore_state(components["actions"])
        self._vectorizer.restore_state(components["vectorizer"])
