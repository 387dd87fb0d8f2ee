"""Revisit scheduling policies.

A policy sees the inventory of known HTML pages, receives feedback after
every revisit ("did this page change since the last visit? did it expose
new targets?"), and each epoch picks which pages to revisit under a
request budget: the pages of highest :meth:`RevisitPolicy.priority`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass
class PageObservation:
    """Bookkeeping per known page."""

    last_visit: float = 0.0
    n_visits: int = 0
    n_changed: int = 0
    n_new_targets: int = 0
    group: int | None = None  # tag-path action of the inbound link


class RevisitPolicy(ABC):
    """Base class: inventory + observation bookkeeping."""

    name = "revisit-policy"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.pages: dict[str, PageObservation] = {}

    def register(self, url: str, now: float = 0.0, group: int | None = None) -> None:
        """Add a page to the inventory (group: its tag-path action id)."""
        self.pages.setdefault(url, PageObservation(last_visit=now, group=group))

    def observe(
        self, url: str, changed: bool, new_targets: int, now: float
    ) -> None:
        entry = self.pages.setdefault(url, PageObservation())
        entry.n_visits += 1
        entry.last_visit = now
        entry.n_changed += changed
        entry.n_new_targets += new_targets

    def schedule(self, budget: int, now: float) -> list[str]:
        """Pick up to ``budget`` pages to revisit at epoch ``now``: the
        highest priorities, ties in inventory order."""
        pages = self.pages
        return sorted(
            pages, key=lambda url: self.priority(pages[url], now), reverse=True
        )[:budget]

    @abstractmethod
    def priority(self, entry: PageObservation, now: float) -> float:
        """What revisiting the page of ``entry`` at epoch ``now`` is worth."""


class UniformRevisitPolicy(RevisitPolicy):
    """Round-robin: always revisit the stalest pages first.

    The incremental-Heritrix baseline behaviour: fair but blind to how
    often pages actually change.
    """

    name = "UNIFORM"

    def priority(self, entry: PageObservation, now: float) -> float:
        return -entry.last_visit


class ChangeRatePolicy(RevisitPolicy):
    """Estimated-change-rate scheduling (Cho & Garcia-Molina lineage).

    Ranks pages by (estimated change probability per epoch) × staleness,
    with a Laplace-smoothed per-page change estimate.
    """

    name = "CHANGE-RATE"

    def priority(self, entry: PageObservation, now: float) -> float:
        rate = (entry.n_changed + 0.5) / (entry.n_visits + 1.0)
        return rate * max(now - entry.last_visit, 0.0)


class ThompsonRevisitPolicy(RevisitPolicy):
    """Beta-Bernoulli Thompson Sampling over per-visit change probability
    [Schulam & Muslea 2023]: sample p ~ Beta(1 + changes, 1 + unchanged)
    per page, weight by staleness, pick the top of the sample."""

    name = "THOMPSON"

    def priority(self, entry: PageObservation, now: float) -> float:
        alpha = 1.0 + entry.n_changed
        beta = 1.0 + entry.n_visits - entry.n_changed
        p = self._rng.betavariate(alpha, beta)
        return p * max(now - entry.last_visit, 0.0)


class TagPathGroupPolicy(RevisitPolicy):
    """Structure-aware revisits: the paper's future-work idea.

    Pages are grouped by the tag-path action of their inbound link (the
    SB crawler's learned structure); new-target feedback accumulates
    *per group*, so a fresh release on one catalog immediately raises
    the revisit priority of every structurally similar page — even pages
    never yet observed to change.
    """

    name = "TAG-PATH"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: group -> [new targets found, visits] over all its pages
        self._group_tally: dict[int, list[float]] = {}

    def observe(
        self, url: str, changed: bool, new_targets: int, now: float
    ) -> None:
        super().observe(url, changed, new_targets, now)
        group = self.pages[url].group
        if group is not None:
            tally = self._group_tally.setdefault(group, [0.0, 0])
            tally[0] += new_targets
            tally[1] += 1

    def _group_score(self, group: int | None) -> float:
        if group is None:
            return 0.0
        found, visits = self._group_tally.get(group, (0.0, 0))
        return (found + 0.5) / (visits + 1.0)

    def priority(self, entry: PageObservation, now: float) -> float:
        own_rate = (entry.n_new_targets + 0.25) / (entry.n_visits + 1.0)
        group_rate = self._group_score(entry.group)
        return (own_rate + group_rate) * max(now - entry.last_visit, 0.0)
