"""The crawl-kernel contracts, checked over every registered crawler.

docs/architecture.md ("Crawl kernel") states them once: the budget is
a hard cap, robots.txt and the blocklist apply to redirect targets as
to links, and an abandoned request is requeued and eventually fetched
or dead-lettered.  Each test here runs all nine crawlers of the
registry, so a crawler cannot keep a private fetch path that breaks one.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.baselines import CRAWLER_NAMES, make_crawler
from repro.http.client import RetryPolicy
from repro.http.environment import CrawlEnvironment
from repro.http.faults import FaultPlan, FaultSpec
from repro.obs.events import FetchEvent, RequestAbandoned
from repro.obs.sinks import MemorySink
from repro.webgraph.model import Link, Page, PageKind, WebsiteGraph
from repro.webgraph.sites import load_paper_site

POLITE = tuple(name for name in CRAWLER_NAMES if name != "OMNISCIENT")


# -- budget --------------------------------------------------------------

@pytest.fixture(scope="module")
def ju_env():
    return CrawlEnvironment(load_paper_site("ju", scale=0.2))


@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_budget_is_a_hard_cap(ju_env, name):
    # budget 368 used to end on a redirect that BFS followed anyway
    result = make_crawler(name, seed=7).crawl(ju_env, budget=368)
    assert result.n_requests <= 368


def test_bfs_stops_at_budget_on_redirect(ju_env):
    result = make_crawler("BFS").crawl(ju_env, budget=368)
    assert result.n_requests == 368
    assert result.trace.records[-1].status == 301


# -- redirect targets go through the link filter ----------------------------

BASE = "https://www.polite.example"


def _page(url, links=(), kind=PageKind.HTML, **kwargs):
    defaults = {PageKind.HTML: dict(mime_type="text/html", status=200, size=3000),
                PageKind.TARGET: dict(mime_type="text/csv", status=200, size=900),
                PageKind.REDIRECT: dict(mime_type=None, status=301, size=200),
                PageKind.OTHER: dict(status=200, size=90_000)}[kind]
    defaults.update(kwargs)
    return Page(url=url, kind=kind,
                links=[Link(url=u, tag_path="html body ul li a", anchor="data")
                       for u in links],
                **defaults)


@pytest.fixture(scope="module")
def redirect_env():
    graph = WebsiteGraph(f"{BASE}/", name="polite")
    graph.robots_txt = "User-agent: *\nDisallow: /internal/\n"
    for page in (
        _page(f"{BASE}/", [f"{BASE}/a", f"{BASE}/alias", f"{BASE}/photo"]),
        _page(f"{BASE}/a", [f"{BASE}/t.csv"]),
        _page(f"{BASE}/t.csv", kind=PageKind.TARGET),
        _page(f"{BASE}/alias", kind=PageKind.REDIRECT,
              redirect_to=f"{BASE}/internal/secret"),
        _page(f"{BASE}/internal/secret", [f"{BASE}/internal/t.csv"]),
        _page(f"{BASE}/internal/t.csv", kind=PageKind.TARGET),
        _page(f"{BASE}/photo", kind=PageKind.REDIRECT,
              redirect_to=f"{BASE}/media/big.jpg"),
        _page(f"{BASE}/media/big.jpg", kind=PageKind.OTHER,
              mime_type="image/jpeg"),
    ):
        graph.add_page(page)
    return CrawlEnvironment(graph)


@pytest.mark.parametrize("name", POLITE)
def test_redirect_into_disallowed_path_is_not_fetched(redirect_env, name):
    result = make_crawler(name, seed=1).crawl(redirect_env)
    gets = [r.url for r in result.trace.records if r.method == "GET"]
    assert f"{BASE}/robots.txt" in gets
    assert not [url for url in gets if "/internal/" in url or url.endswith(".jpg")]
    assert f"{BASE}/t.csv" in result.targets


def test_omniscient_never_fetches_robots(redirect_env):
    result = make_crawler("OMNISCIENT").crawl(redirect_env)
    assert [r.url for r in result.trace.records] == sorted(redirect_env.target_urls())


# -- retry → requeue → dead-letter -------------------------------------------

def _faulty_qa(sink=None):
    return CrawlEnvironment(
        load_paper_site("qa", scale=0.4),
        observer=sink,
        fault_plan=FaultPlan(FaultSpec(rate=0.3), seed=3),
        retry_policy=RetryPolicy(seed=3),
    )


@pytest.fixture(scope="module")
def faulty_runs():
    runs = {}
    for name in CRAWLER_NAMES:
        sink = MemorySink()
        env = _faulty_qa(sink)
        runs[name] = (env, make_crawler(name, seed=7).crawl(env, budget=1000), sink)
    return runs


@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_every_abandoned_url_is_refetched_or_dead_lettered(faulty_runs, name):
    env, result, sink = faulty_runs[name]
    assert result.n_requests < 1000, "the budget must not hide pending requeues"
    assert result.targets <= env.target_urls()
    last_abandoned: dict[str, int] = {}
    last_get: dict[str, int] = {}
    for index, event in enumerate(sink.events):
        if isinstance(event, RequestAbandoned):
            last_abandoned[event.url] = index
        elif isinstance(event, FetchEvent) and event.method == "GET":
            last_get[event.url] = index
    assert last_abandoned, "the fault plan must abandon some requests"
    dead = set(result.dead_letters)
    for url, index in last_abandoned.items():
        assert url in dead or last_get.get(url, -1) > index, url


def test_omniscient_finds_every_target_bfs_finds(faulty_runs):
    assert faulty_runs["BFS"][1].targets <= faulty_runs["OMNISCIENT"][1].targets


@pytest.mark.parametrize("name", CRAWLER_NAMES)
def test_total_outage_dead_letters_everything(small_site, name):
    env = CrawlEnvironment(
        small_site,
        fault_plan=FaultPlan(FaultSpec(rate=1.0, kinds=("timeout",)), seed=1),
        retry_policy=RetryPolicy(seed=1, max_attempts=2, total_budget=64),
    )
    result = make_crawler(name, seed=1).crawl(env)
    assert result.targets == set()
    assert result.dead_letters
    assert set(result.dead_letters) == result.visited


# -- one fetch path ------------------------------------------------------------

def test_only_the_kernel_opens_clients():
    """Every request in ``src/repro`` goes through ``CrawlKernel``: no
    other module opens an HTTP client."""
    root = Path(repro.__file__).parent
    openers = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "new_client":
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.lineno in allowed:
                continue
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in ("new_client", "HttpClient"):
                openers.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    assert openers
    assert [o for o in openers if not o.startswith("core/kernel.py:")] == []
