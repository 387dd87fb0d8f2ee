"""Tests for the website graph model and boundary rules (Sec. 2.2)."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # one authority, many paths: the memo answers all but the first
    "https://a.example/y?q=1#f",
    "https://a.example",
    "https://a.example?q",
    "https://a.example#f",
    # authorities urlsplit rewrites or reads another way
    "http://\ta.example/x",
    "https://b.exa\nmple.a.example/x",
    "https://a.example\r.b.example/x",
    "HTTP://b.example/x",
    " https://b.example/x",
    "\x00https://a.example/x",
    "https://user:pw@b.example@a.example:8080/x",
    "https://a.example@b.example/x",
    "https://[::1]:8080/x",
]


def _answer(check, url):
    """``check(url)`` as a comparable value: its result, or ValueError
    when it raises that."""
    try:
        return check(url)
    except ValueError:
        return ValueError


def _client_in_site(client, url):
    """The client's boundary check as a bool."""
    try:
        client._check_boundary(url)
    except OffsiteRequestError:
        return False
    return True


def _assert_boundary_equals_same_site(root, urls):
    """Ask the environment and the client about every URL twice (memo
    miss, then memo hit); each answer must be the per-call same_site
    rule's, raising where it raises."""
    env = CrawlEnvironment(WebsiteGraph(root, name="t"))
    client = env.new_client()
    for _ in range(2):
        for url in urls:
            expected = _answer(partial(same_site, root), url)
            assert _answer(env.in_site, url) == expected, url
            assert _answer(partial(_client_in_site, client), url) == expected, url


_ROOTS = ["https://www.a.example/", "https://A.EXAMPLE:8080/", "https://cdn.a.example/",
          "file:///no/host", "http://[::1]/"]


@pytest.mark.parametrize("root", _ROOTS)
def test_environment_in_site_equals_same_site(root):
    """The environment and the client memoise the boundary per authority;
    their answers must be the per-call same_site rule's for every kind
    of URL, on the first call and on every repeat."""
    _assert_boundary_equals_same_site(root, _BOUNDARY_URLS)


_HOST_POOL = [
    "a.example", "www.a.example", "WWW.A.Example", "cdn.a.example", "b.example",
    "a.example.evil.org", "xa.example", "", "www.", "[::1]", "[fe80::1%25eth0]",
    "[::1", "::1]", "[v1.x]", "[not-ip]", "]a[", "bücher.a.example", "例え.jp",
    "a.exam\u2100ple", "\u2100.a.example", "a\uff0fb.example",
]
_HOSTS = st.sampled_from(_HOST_POOL)
#: asked first, so every pool host's authority is already memoised when
#: a hostile URL that merely starts like it arrives
_PRIMERS = [f"{scheme}{host}/" for host in _HOST_POOL for scheme in ("http://", "https://")]
_URL_PARTS = st.text(alphabet="aw.:@/?#%\u2100ü", max_size=6)


def _mostly(clean, *hostile):
    """``clean`` three times in four, else one of ``hostile``."""
    return st.one_of(st.just(clean), st.just(clean), st.just(clean),
                     st.sampled_from(hostile))


@st.composite
def _hostile_urls(draw):
    lead = draw(_mostly("", " ", "\x00", "\x1f", "\t", "\n", " \x01"))
    scheme = draw(st.sampled_from(["http://", "https://"]))
    scheme = draw(_mostly(scheme, "HTTP://", "Https://", "//", "", "ftp://", "http:/"))
    userinfo = draw(_mostly("", "user@", "user:pw@", "@", "a@b@"))
    port = draw(_mostly("", ":8080", ":", ":x", ":80:90"))
    url = lead + scheme + userinfo + draw(_HOSTS) + draw(_URL_PARTS) + port
    url += draw(st.sampled_from(["", "/", "/p", "?q", "#f"])) + draw(_URL_PARTS)
    cut = draw(st.integers(min_value=0, max_value=len(url)))
    inserted = draw(_mostly("", "\t", "\r", "\n", "[", "]", " ", "\x00"))
    return url[:cut] + inserted + url[cut:]


@given(st.sampled_from(_ROOTS), st.lists(_hostile_urls(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_memoised_boundary_equals_same_site_on_hostile_urls(root, urls):
    """Tabs, CR and LF anywhere, leading spaces and C0 controls, upper-case
    schemes, userinfo, ports, bracketed or broken IPv6 hosts and
    non-ASCII authorities: the memo never answers for a URL that
    urlsplit would read another way."""
    _assert_boundary_equals_same_site(root, _PRIMERS + urls)


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
