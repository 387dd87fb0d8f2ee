"""Tests for the baseline crawlers."""

import pytest

from repro.baselines import (
    BFSCrawler,
    DFSCrawler,
    FocusedCrawler,
    OmniscientCrawler,
    RandomCrawler,
    TPOffCrawler,
    TresCrawler,
)
from repro.webgraph.model import same_site

EXHAUSTIVE = [
    BFSCrawler,
    DFSCrawler,
    lambda: RandomCrawler(seed=0),
    FocusedCrawler,
    lambda: TPOffCrawler(bootstrap_pages=40),
]


@pytest.mark.parametrize("factory", EXHAUSTIVE)
def test_exhaustive_baselines_find_all_targets(small_env, factory):
    result = factory().crawl(small_env)
    assert result.targets == small_env.target_urls()


@pytest.mark.parametrize("factory", EXHAUSTIVE)
def test_baselines_respect_boundary(small_env, factory):
    result = factory().crawl(small_env)
    for record in result.trace.records:
        assert same_site(small_env.root_url, record.url)


@pytest.mark.parametrize("factory", EXHAUSTIVE)
def test_baselines_never_refetch(small_env, factory):
    result = factory().crawl(small_env)
    urls = [r.url for r in result.trace.records if r.method == "GET"]
    assert len(urls) == len(set(urls))


def test_budget_respected(small_env):
    result = BFSCrawler().crawl(small_env, budget=30)
    assert result.n_requests <= 30 + 30  # bounded chain overshoot


def test_bfs_visits_in_depth_order(small_env):
    result = BFSCrawler().crawl(small_env)
    depths = small_env.graph.depths()
    get_depths = [
        depths[r.url]
        for r in result.trace.records
        if r.method == "GET" and r.url in depths
    ]
    # BFS order: depth never decreases by more than the redirect slack.
    running_max = 0
    for depth in get_depths:
        running_max = max(running_max, depth)
        assert depth >= running_max - 2


def test_random_crawler_seed_determinism(small_env):
    a = RandomCrawler(seed=4).crawl(small_env)
    b = RandomCrawler(seed=4).crawl(small_env)
    assert [r.url for r in a.trace.records] == [r.url for r in b.trace.records]


def test_omniscient_is_lower_bound(small_env):
    omniscient = OmniscientCrawler().crawl(small_env)
    assert omniscient.targets == small_env.target_urls()
    # Every request retrieves a target: the unreachable efficiency bound.
    assert omniscient.n_requests == len(small_env.target_urls())
    assert all(r.is_target for r in omniscient.trace.records)


def test_omniscient_budget(small_env):
    result = OmniscientCrawler().crawl(small_env, budget=5)
    assert result.n_requests == 5


def test_tpoff_groups_formed(small_env):
    result = TPOffCrawler(bootstrap_pages=40).crawl(small_env)
    assert result.info["n_groups"] > 1


def test_tres_finds_targets_with_oracle(small_env):
    result = TresCrawler(n_pretraining_pages=50, seed=0).crawl(
        small_env, budget=80
    )
    # TRES visits target links immediately thanks to the oracle.
    assert result.n_targets > 0
    assert result.n_requests <= 80


def test_tres_full_crawl_small_site(small_env):
    result = TresCrawler(seed=0).crawl(small_env)
    assert result.targets == small_env.target_urls()


def test_focused_learns_something(small_env):
    crawler = FocusedCrawler(retrain_every=20)
    result = crawler.crawl(small_env)
    assert crawler._model.n_updates > 0
    assert result.n_targets > 0
