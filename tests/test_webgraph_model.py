"""Tests for the website graph model and boundary rules (Sec. 2.2)."""

import pytest

from repro.http.client import OffsiteRequestError
from repro.http.environment import CrawlEnvironment
from repro.webgraph.model import (
    Link,
    Page,
    PageKind,
    WebsiteGraph,
    registrable_host,
    same_site,
)


def make_graph() -> WebsiteGraph:
    g = WebsiteGraph("https://www.a.example/", name="t")
    g.add_page(
        Page(
            url="https://www.a.example/",
            kind=PageKind.HTML,
            size=1000,
            links=[
                Link("https://www.a.example/page1", "html body a"),
                Link("https://www.a.example/file.csv", "html body ul li a"),
            ],
        )
    )
    g.add_page(Page(url="https://www.a.example/page1", kind=PageKind.HTML, size=500))
    g.add_page(
        Page(
            url="https://www.a.example/file.csv",
            kind=PageKind.TARGET,
            mime_type="text/csv",
            size=2048,
        )
    )
    return g


# -- boundary rule (paper Sec. 2.2 examples) -------------------------------

def test_same_site_paper_examples():
    root = "https://www.A.B.com/index.php"
    assert same_site(root, "https://www.A.B.com/folder/content.php")
    assert same_site(root, "https://www.C.A.B.com/page.html")
    assert not same_site(root, "https://www.B.com/page.php")
    assert not same_site(root, "https://edbticdt2026.github.io/?x=1")


def test_www_prefix_is_transparent():
    assert same_site("https://www.site.org/", "https://site.org/page")
    assert same_site("https://site.org/", "https://www.site.org/page")


_BOUNDARY_URLS = [
    "https://a.example/x",
    "https://www.a.example/x",
    "https://WWW.A.Example/x",
    "https://cdn.a.example/x",
    "https://www.cdn.a.example/x",
    "https://a.example:8443/x",
    "https://www.a.example:80/x",
    "https://b.example/x",
    "https://a.example.evil.org/x",
    "https://xa.example/x",
    "https://example/x",
    "/relative/path",
    "mailto:someone",
    "",
]


@pytest.mark.parametrize(
    "root",
    ["https://www.a.example/", "https://A.EXAMPLE:8080/", "https://cdn.a.example/",
     "file:///no/host"],
)
def test_environment_in_site_equals_same_site(root):
    """The environment and the client resolve the root host once; their
    answers must be the per-call same_site rule's for every kind of URL."""
    env = CrawlEnvironment(WebsiteGraph(root, name="t"))
    client = env.new_client()
    for url in _BOUNDARY_URLS:
        expected = same_site(root, url)
        assert env.in_site(url) == expected, url
        if expected:
            client._check_boundary(url)
        else:
            with pytest.raises(OffsiteRequestError):
                client._check_boundary(url)


def test_subdomain_direction_matters():
    # A parent domain is NOT part of the subdomain's site.
    assert not same_site("https://sub.site.org/", "https://site.org/")
    assert same_site("https://site.org/", "https://sub.site.org/")


def test_registrable_host():
    assert registrable_host("https://www.X.org/a") == "x.org"
    assert registrable_host("https://data.x.org/a") == "data.x.org"


# -- graph ---------------------------------------------------------------

def test_duplicate_url_rejected():
    g = make_graph()
    with pytest.raises(ValueError):
        g.add_page(Page(url="https://www.a.example/", kind=PageKind.HTML))


def test_depths_bfs():
    g = make_graph()
    depths = g.depths()
    assert depths["https://www.a.example/"] == 0
    assert depths["https://www.a.example/page1"] == 1
    assert depths["https://www.a.example/file.csv"] == 1


def test_depth_through_redirect_is_free():
    g = WebsiteGraph("https://www.a.example/")
    g.add_page(
        Page(
            url="https://www.a.example/",
            kind=PageKind.HTML,
            links=[Link("https://www.a.example/alias", "html body a")],
        )
    )
    g.add_page(
        Page(
            url="https://www.a.example/alias",
            kind=PageKind.REDIRECT,
            status=301,
            redirect_to="https://www.a.example/real",
        )
    )
    g.add_page(Page(url="https://www.a.example/real", kind=PageKind.HTML))
    depths = g.depths()
    assert depths["https://www.a.example/alias"] == 1
    assert depths["https://www.a.example/real"] == 1


def test_statistics():
    g = make_graph()
    stats = g.statistics()
    assert stats.n_available == 3
    assert stats.n_targets == 1
    assert abs(stats.target_density - 1 / 3) < 1e-12
    assert stats.html_to_target_pct == 50.0  # 1 of 2 HTML pages links a target
    assert stats.target_size_mean == 2048
    assert stats.target_depth_mean == 1.0


def test_validate_detects_problems():
    g = make_graph()
    assert g.validate() == []
    g.add_page(
        Page(
            url="https://www.a.example/bad-redirect",
            kind=PageKind.REDIRECT,
            status=301,
        )
    )
    g.add_page(Page(url="https://www.a.example/orphan", kind=PageKind.HTML))
    problems = g.validate()
    assert any("redirect without destination" in p for p in problems)
    assert any("unreachable" in p for p in problems)


def test_validate_flags_dangling_links():
    g = make_graph()
    g.page("https://www.a.example/page1").links.append(
        Link("https://www.a.example/ghost", "html body a")
    )
    assert any("dangling" in p for p in g.validate())
