"""Tests for the incremental-revisit extension."""

from urllib.parse import urlsplit

import pytest

from repro.http.robots import parse_robots_txt
from repro.http.server import SimulatedServer
from repro.revisit.evolution import EvolvingSite
from repro.revisit.harness import simulate_revisits
from repro.revisit.policies import (
    ChangeRatePolicy,
    TagPathGroupPolicy,
    ThompsonRevisitPolicy,
    UniformRevisitPolicy,
)
from repro.webgraph.generator import generate_site
from tests.conftest import make_profile

POLICIES = [
    UniformRevisitPolicy,
    ChangeRatePolicy,
    ThompsonRevisitPolicy,
    TagPathGroupPolicy,
]


def _graph(name="evo-test", **overrides):
    return generate_site(make_profile(name=name, **overrides))


# -- evolution model -----------------------------------------------------

def test_advance_publishes_targets():
    site = EvolvingSite(_graph(), new_targets_per_epoch=10.0, seed=1)
    before = len(site.graph.target_pages())
    for _ in range(10):
        site.advance(1.0)
    after = len(site.graph.target_pages())
    assert after > before
    published = {c for c in site.changes if c.kind == "new-target"}
    assert len(published) == after - before


def test_new_targets_linked_from_catalogs():
    site = EvolvingSite(_graph(name="evo-t2"), new_targets_per_epoch=10.0, seed=2)
    site.advance(5.0)
    new_urls = site.new_targets_since(0.0)
    assert new_urls
    linked = {
        link.url
        for page in site.graph.html_pages()
        for link in page.links
    }
    assert new_urls <= linked
    # Graph stays consistent after mutation.
    assert site.graph.validate() == []


def test_edits_bump_versions():
    site = EvolvingSite(_graph(name="evo-t3"), seed=3)
    url = site.graph.html_pages()[0].url
    assert site.version(url) == 0
    site.advance(50.0)
    versions = [site.version(p.url) for p in site.graph.html_pages()]
    assert any(v > 0 for v in versions)


def test_advance_requires_positive_dt():
    site = EvolvingSite(_graph(name="evo-t4"), seed=4)
    with pytest.raises(ValueError):
        site.advance(0.0)


def test_evolution_deterministic():
    a = EvolvingSite(_graph(name="evo-t5"), seed=5)
    b = EvolvingSite(_graph(name="evo-t5"), seed=5)
    a.advance(3.0)
    b.advance(3.0)
    assert [c.url for c in a.changes] == [c.url for c in b.changes]


# -- policies --------------------------------------------------------------

@pytest.mark.parametrize("factory", POLICIES)
def test_schedule_respects_budget(factory):
    policy = factory(seed=0)
    for i in range(50):
        policy.register(f"u{i}", now=0.0, group=i % 3)
    picks = policy.schedule(budget=7, now=1.0)
    assert len(picks) == 7
    assert len(set(picks)) == 7


@pytest.mark.parametrize("factory", POLICIES)
def test_observe_updates_bookkeeping(factory):
    policy = factory(seed=0)
    policy.register("u", now=0.0, group=1)
    policy.observe("u", changed=True, new_targets=2, now=3.0)
    entry = policy.pages["u"]
    assert entry.n_visits == 1
    assert entry.n_changed == 1
    assert entry.n_new_targets == 2
    assert entry.last_visit == 3.0


def test_uniform_picks_stalest():
    policy = UniformRevisitPolicy()
    policy.register("old", now=0.0)
    policy.register("fresh", now=0.0)
    policy.observe("fresh", changed=False, new_targets=0, now=5.0)
    assert policy.schedule(budget=1, now=6.0) == ["old"]


def test_change_rate_prefers_churny_pages():
    policy = ChangeRatePolicy()
    for url in ("hot", "cold"):
        policy.register(url, now=0.0)
    for step in range(5):
        policy.observe("hot", changed=True, new_targets=0, now=step + 1)
        policy.observe("cold", changed=False, new_targets=0, now=step + 1)
    assert policy.schedule(budget=1, now=10.0) == ["hot"]


def test_tag_path_group_generalises():
    """Feedback on one group member raises priority of its siblings."""
    policy = TagPathGroupPolicy()
    policy.register("catalog-a", now=0.0, group=7)
    policy.register("catalog-b", now=0.0, group=7)
    policy.register("news", now=0.0, group=8)
    # Only catalog-a ever observed, but it yielded targets.
    for step in range(3):
        policy.observe("catalog-a", changed=True, new_targets=4, now=step + 1)
        policy.observe("news", changed=True, new_targets=0, now=step + 1)
    picks = policy.schedule(budget=2, now=10.0)
    # The never-visited sibling of the productive group outranks the
    # frequently-changing-but-unproductive news page.
    assert "catalog-b" in picks
    assert "news" not in picks


# -- harness --------------------------------------------------------------

@pytest.mark.parametrize("factory", POLICIES)
def test_simulation_end_to_end(factory):
    graph = _graph(name=f"evo-sim-{factory.__name__}", n_pages=150)
    report = simulate_revisits(
        graph, factory(seed=1), n_epochs=8, budget_per_epoch=10,
        new_targets_per_epoch=4.0, seed=9,
    )
    assert report.n_epochs == 8
    assert report.revisit_requests == 8 * 10
    assert 0.0 <= report.recall <= 1.0
    assert report.discovered <= report.published
    assert len(report.per_epoch_recall) == 8
    assert report.policy == factory(seed=1).name
    assert "recall" in report.render()


def test_structure_aware_policy_competitive():
    """The paper's future-work idea: structural grouping helps revisits."""
    def run(factory, name):
        graph = _graph(name=name, n_pages=300)
        return simulate_revisits(
            graph, factory(seed=1), n_epochs=20, budget_per_epoch=8,
            new_targets_per_epoch=5.0, seed=11,
        )

    tagpath = run(TagPathGroupPolicy, "evo-cmp-tp")
    uniform = run(UniformRevisitPolicy, "evo-cmp-un")
    assert tagpath.recall >= uniform.recall


def test_revisits_never_fetch_a_robots_disallowed_page(monkeypatch):
    """robots.txt binds revisits as it binds the first crawl: a
    publishing catalog under a disallowed path is never fetched, nor
    are the releases it links."""
    graph = _graph(name="evo-robots", n_pages=150)
    targets = graph.target_urls()
    catalog = next(
        page.url for page in graph.html_pages()
        if page.url != graph.root_url
        and any(link.url in targets for link in page.links)
    )
    graph.robots_txt += f"Disallow: {urlsplit(catalog).path}\n"
    robots = parse_robots_txt(graph.robots_txt)
    assert not robots.allowed(catalog)

    gets = []
    serve = SimulatedServer.get

    def recording_get(server, url):
        gets.append(url)
        return serve(server, url)

    monkeypatch.setattr(SimulatedServer, "get", recording_get)
    report = simulate_revisits(
        graph, UniformRevisitPolicy(seed=1), n_epochs=6,
        budget_per_epoch=len(graph.html_pages()),
        new_targets_per_epoch=10.0, seed=3,
    )
    assert report.discovered > 0
    assert [url for url in gets if not robots.allowed(url)] == []
