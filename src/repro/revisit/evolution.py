"""Evolving-website model for incremental crawling.

Wraps a generated :class:`WebsiteGraph` and advances it through
simulated time: every HTML page has a Poisson *edit rate* (heavy-tailed:
most pages are near-static, a few churn constantly), and catalog pages
— those already linking targets — *publish new targets* at a
configurable rate, appended to their download slots.  This mirrors how
statistical offices operate: new releases appear in the same structural
location as old ones, which is exactly why reusing the crawler's learned
tag-path groups for revisits is promising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.rng import derive_rng
from repro.webgraph.mime import GENERATOR_TARGET_MIMES
from repro.webgraph.model import Link, Page, PageKind, WebsiteGraph


@dataclass(frozen=True)
class PageChange:
    """One observable change event."""

    url: str
    time: float
    kind: str               # "edit" or "new-target"
    new_target_url: str | None = None


@dataclass
class _PageState:
    version: int = 0
    edit_rate: float = 0.01
    publish_rate: float = 0.0


class EvolvingSite:
    """A website graph plus a change process over simulated epochs."""

    def __init__(
        self,
        graph: WebsiteGraph,
        new_targets_per_epoch: float = 5.0,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.seed = seed
        self.now = 0.0
        self.changes: list[PageChange] = []
        self._rng = derive_rng(seed, "evolution", graph.name)
        self._states: dict[str, _PageState] = {}
        self._new_target_counter = 0

        target_urls = graph.target_urls()
        catalogs = [
            p for p in graph.html_pages()
            if any(l.url in target_urls for l in p.links)
        ]
        # Heavy-tailed edit rates: lognormal, median well below 1/epoch.
        for page in graph.html_pages():
            rng = derive_rng(seed, "rates", page.url)
            self._states[page.url] = _PageState(
                edit_rate=min(2.0, rng.lognormvariate(-2.5, 1.2)),
            )
        # Publication mass distributed over catalogs (zipf-like via
        # exponential weights) so a few catalogs publish most new data.
        if catalogs:
            weights = [1.0 / (rank + 1) for rank in range(len(catalogs))]
            total = sum(weights)
            for page, weight in zip(catalogs, weights):
                self._states[page.url].publish_rate = (
                    new_targets_per_epoch * weight / total
                )

    # -- ground truth (for scoring and tests; no crawler sees it) --------

    def version(self, url: str) -> int:
        state = self._states.get(url)
        return state.version if state is not None else 0

    def new_targets_since(self, time: float) -> set[str]:
        return {
            c.new_target_url
            for c in self.changes
            if c.kind == "new-target" and c.time > time and c.new_target_url
        }

    # -- evolution -----------------------------------------------------------

    def _poisson(self, rate: float) -> int:
        """Knuth's algorithm; rates here are small."""
        if rate <= 0:
            return 0
        limit = math.exp(-rate)
        count = 0
        product = self._rng.random()
        while product > limit:
            count += 1
            product *= self._rng.random()
        return count

    def advance(self, dt: float = 1.0) -> list[PageChange]:
        """Advance simulated time by ``dt`` epochs; returns new changes."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.now += dt
        new_changes: list[PageChange] = []
        for url, state in self._states.items():
            if self._poisson(state.edit_rate * dt) > 0:
                state.version += 1
                new_changes.append(PageChange(url=url, time=self.now, kind="edit"))
            n_new = self._poisson(state.publish_rate * dt)
            for _ in range(n_new):
                new_changes.append(self._publish_target(url))
        self.changes.extend(new_changes)
        return new_changes

    def _publish_target(self, catalog_url: str) -> PageChange:
        catalog = self.graph.page(catalog_url)
        self._new_target_counter += 1
        rng = derive_rng(self.seed, "new-target", str(self._new_target_counter))
        mime, _ = GENERATOR_TARGET_MIMES[
            rng.randrange(len(GENERATOR_TARGET_MIMES))
        ]
        url = f"{catalog_url.rstrip('/')}/release-{self._new_target_counter}"
        page = Page(
            url=url,
            kind=PageKind.TARGET,
            mime_type=mime,
            status=200,
            size=rng.randint(10_000, 3_000_000),
            section=catalog.section,
        )
        self.graph.add_page(page)
        # New releases appear in the catalog's existing download slot:
        # reuse the tag path of its last link when it has one.
        links = catalog.links
        tag_path = links[-1].tag_path if links else "html body a"
        catalog.links.append(
            Link(url=url, tag_path=tag_path, anchor="New release")
        )
        state = self._states[catalog_url]
        state.version += 1
        return PageChange(
            url=catalog_url, time=self.now, kind="new-target",
            new_target_url=url,
        )
