"""Golden crawl digests: every crawler on every paper site, pinned.

``tests/data/golden_crawl_digests.json`` holds, for each crawl, the
first 16 hex digits of the SHA-256 of its request trace, its target set
and its dead letters.  It was recorded before the nine crawlers moved
onto the one crawl kernel, on

* the clean path: all 9 registry crawlers × 18 sites;
* under a seeded fault plan: the 6 crawlers that already handled
  faults (SB-ORACLE, SB-CLASSIFIER, FOCUSED, BFS, DFS, RANDOM).

A cell may differ from the recording only where ``KNOWN_DELTAS`` says
so, and each listed cell must still differ, so the list stays exact.

Those crawls all end before the URL classifier's 40th fit, where its
warm-up replay window is dropped.  The ``past_warm_up`` cells pin three
longer SB-CLASSIFIER crawls that run well past it.

Print the current digests (same format) with::

    PYTHONPATH=src python tests/test_crawl_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import CRAWLER_NAMES, make_crawler
from repro.http.client import RetryPolicy
from repro.http.environment import CrawlEnvironment
from repro.http.faults import FaultPlan, FaultSpec
from repro.webgraph.sites import PAPER_SITES, load_paper_site

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_crawl_digests.json").read_text()
)
SETTINGS = GOLDEN["settings"]
PAST_WARM_UP = GOLDEN["past_warm_up"]
SITES = tuple(sorted(PAPER_SITES))
FAULTED = ("SB-ORACLE", "SB-CLASSIFIER", "FOCUSED", "BFS", "DFS", "RANDOM")
COMPONENTS = ("trace", "targets", "dead_letters")

#: TP-OFF used to drop permanent errors (404/410/403) silently; the
#: kernel dead-letters them for every crawler.  Its trace is unchanged.
_TPOFF_404_SITES = ("as", "be", "cl", "cn", "ed", "is", "jp", "ju", "nc", "qa")

#: (grid, crawler, site) -> the components that differ, and why.
KNOWN_DELTAS: dict[tuple[str, str, str], tuple[str, ...]] = {
    # the budget ran out on a redirect FOCUSED used to follow anyway
    ("clean", "FOCUSED", "ju"): ("trace",),
    **{("clean", "TP-OFF", site): ("dead_letters",) for site in _TPOFF_404_SITES},
}


def _sha(value) -> str:
    data = json.dumps(value, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def digest(result) -> list[str]:
    """[trace, targets, dead letters] digests of one crawl."""
    return [
        _sha([[r.method, r.url, r.status, r.size, r.is_target]
              for r in result.trace.records]),
        _sha(sorted(result.targets)),
        _sha(list(result.dead_letters)),
    ]


def _graphs():
    return {site: load_paper_site(site, scale=SETTINGS["scale"]) for site in SITES}


def _faulty_env(graph) -> CrawlEnvironment:
    return CrawlEnvironment(
        graph,
        fault_plan=FaultPlan(FaultSpec(rate=SETTINGS["fault_rate"]),
                             seed=SETTINGS["fault_seed"]),
        retry_policy=RetryPolicy(seed=SETTINGS["retry_seed"]),
    )


def _crawl(name, env) -> list[str]:
    crawler = make_crawler(name, seed=SETTINGS["crawler_seed"])
    return digest(crawler.crawl(env, budget=SETTINGS["budget"]))


@pytest.fixture(scope="module")
def clean_environments():
    # one environment per site, shared by all crawlers like the crawls
    # of one table shard: parses are cached, crawls stay independent
    return {site: CrawlEnvironment(graph) for site, graph in _graphs().items()}


def _check(grid: str, name: str, site: str, got: list[str]) -> list[str]:
    expected = GOLDEN[grid][f"{name}/{site}"]
    differ = tuple(c for c, a, b in zip(COMPONENTS, expected, got) if a != b)
    known = KNOWN_DELTAS.get((grid, name, site), ())
    if differ == known:
        return []
    return [f"{name}/{site}: {differ} differ, expected {known}"]


@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_clean_crawls_match_golden_digests(clean_environments, name):
    problems = []
    for site in SITES:
        problems += _check("clean", name, site, _crawl(name, clean_environments[site]))
    assert not problems, problems


@pytest.mark.parametrize("name", FAULTED)
def test_faulted_crawls_match_golden_digests(clean_environments, name):
    problems = []
    for site in SITES:
        env = _faulty_env(clean_environments[site].graph)
        problems += _check("faults", name, site, _crawl(name, env))
    assert not problems, problems


def _past_warm_up_crawl(cell: str) -> list[str]:
    name, site, seed = cell.split("/")
    settings = PAST_WARM_UP["settings"]
    env = CrawlEnvironment(load_paper_site(site, scale=settings["scale"]))
    crawler = make_crawler(name, seed=int(seed))
    return digest(crawler.crawl(env, budget=settings["budget"]))


@pytest.mark.parametrize("cell", sorted(PAST_WARM_UP["cells"]))
def test_crawls_past_classifier_warm_up_match_golden_digests(cell):
    assert _past_warm_up_crawl(cell) == PAST_WARM_UP["cells"][cell]


def test_sb_crawls_have_no_known_deltas():
    assert not [key for key in KNOWN_DELTAS if key[1].startswith("SB-")]


if __name__ == "__main__":
    graphs = _graphs()
    current = {
        "clean": {f"{name}/{site}": _crawl(name, CrawlEnvironment(graphs[site]))
                  for name in CRAWLER_NAMES for site in SITES},
        "faults": {f"{name}/{site}": _crawl(name, _faulty_env(graphs[site]))
                   for name in FAULTED for site in SITES},
        "past_warm_up": {cell: _past_warm_up_crawl(cell)
                         for cell in sorted(PAST_WARM_UP["cells"])},
    }
    print(json.dumps(current, indent=1, sort_keys=True))
