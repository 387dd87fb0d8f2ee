"""Epoch-based revisit simulation, run on the crawl kernel.

Protocol: an SB-CLASSIFIER crawl of the site builds the page inventory:
every page it fetched as HTML, grouped by the bandit action that pulled
it, with the set of links it had.  Then, each epoch, the site evolves
(edits + newly published targets), the policy picks ``budget`` pages to
revisit, and one kernel crawl fetches exactly those pages plus, at
once, every link no earlier fetch has seen.  A page counts as changed
when its links differ from its last fetch, and the targets fetched from
it are the ones the kernel counted by response MIME: everything the
policy is fed comes from responses.  The site's own change log is read
only to score: the headline metric is the recall of newly published
targets under the revisit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.simple import BFSCrawler
from repro.core.crawler import SBConfig, SBCrawler
from repro.core.url_classifier import UrlClass
from repro.http.environment import CrawlEnvironment
from repro.revisit.evolution import EvolvingSite
from repro.revisit.policies import RevisitPolicy
from repro.webgraph.model import WebsiteGraph


@dataclass
class RevisitReport:
    """Outcome of one revisit simulation."""

    policy: str
    n_epochs: int
    budget_per_epoch: int
    published: int = 0
    discovered: int = 0
    revisit_requests: int = 0
    target_requests: int = 0
    per_epoch_recall: list[float] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return self.discovered / self.published if self.published else 1.0

    def render(self) -> str:
        return (
            f"{self.policy:12} epochs={self.n_epochs} "
            f"budget={self.budget_per_epoch}/epoch "
            f"new-targets discovered {self.discovered}/{self.published} "
            f"(recall {100 * self.recall:.1f}%), "
            f"{self.revisit_requests} revisit + "
            f"{self.target_requests} target requests"
        )


def _link_set(parsed) -> frozenset[str]:
    return frozenset(link.url for link in parsed.links)


class _InventoryCrawler(SBCrawler):
    """SB-CLASSIFIER that keeps, for every page it fetches as HTML, the
    action that pulled it (None for a root-pool draw; a redirect carries
    its action to the landing page) and the page's link set."""

    def __init__(self, seed: int) -> None:
        super().__init__(SBConfig(seed=seed))
        self.group: dict[str, int | None] = {}
        self.links: dict[str, frozenset[str]] = {}

    def on_response(self, kernel, url, ctx, kind, parsed) -> None:
        super().on_response(kernel, url, ctx, kind, parsed)
        if kind is UrlClass.HTML:
            self.group[url] = ctx
            self.links[url] = _link_set(parsed)


class _EpochCrawler(BFSCrawler):
    """One epoch of revisits: fetch the picked pages, and at once every
    link of theirs that is not yet ``known`` (``known`` and ``links``
    are shared across epochs and updated in place)."""

    name = "REVISIT"

    def __init__(self, picks: list[str], known: set[str],
                 links: dict[str, frozenset[str]]) -> None:
        self.picks = picks
        self.known = known
        self.links = links
        self.changed: dict[str, bool] = {}
        self.found: dict[str, int] = {}

    def seeds(self, kernel) -> list[str]:
        return self.picks

    def on_link(self, kernel, link, source, parsed) -> bool:
        fresh = link.url not in self.known
        self.known.add(link.url)
        return fresh

    def after_page(self, kernel, url, ctx, parsed, reward) -> None:
        links = _link_set(parsed)
        self.changed[url] = links != self.links.get(url)
        self.links[url] = links
        self.found[url] = reward


def simulate_revisits(
    graph: WebsiteGraph,
    policy: RevisitPolicy,
    n_epochs: int = 20,
    budget_per_epoch: int = 30,
    new_targets_per_epoch: float = 5.0,
    seed: int = 0,
) -> RevisitReport:
    """Run the revisit protocol; the graph is mutated (pass a fresh one)."""
    site = EvolvingSite(graph, new_targets_per_epoch, seed)
    env = CrawlEnvironment(graph)
    inventory = _InventoryCrawler(seed)
    known = set(inventory.crawl(env).visited)
    for url, group in inventory.group.items():
        policy.register(url, now=0.0, group=group)

    report = RevisitReport(policy.name, n_epochs, budget_per_epoch)
    published: set[str] = set()

    for _ in range(n_epochs):
        for change in site.advance(1.0):
            # Cache coherence of the simulated web, not crawler knowledge.
            env.server.invalidate(change.url)
            env.invalidate(change.url)
            if change.new_target_url:
                published.add(change.new_target_url)

        picks = policy.schedule(budget_per_epoch, site.now)
        epoch = _EpochCrawler(picks, known, inventory.links)
        result = epoch.crawl(env)
        for url in picks:
            policy.observe(url, epoch.changed.get(url, False),
                           epoch.found.get(url, 0), site.now)
        report.published = len(published)
        report.discovered += len(result.targets & published)
        report.revisit_requests += len(picks)
        report.target_requests += len(result.visited) - len(picks)
        report.per_epoch_recall.append(report.recall)

    return report
