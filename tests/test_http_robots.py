"""Tests for robots.txt parsing, spider traps and polite crawling."""

from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.crawler import SBConfig, sb_classifier, sb_oracle
from repro.http.environment import CrawlEnvironment
from repro.http.robots import (
    RobotsPolicy,
    fetch_robots_policy,
    parse_robots_txt,
    parse_sitemap,
)
from repro.baselines import BFSCrawler, DFSCrawler
from repro.webgraph.generator import generate_site
from tests.conftest import make_profile

SAMPLE = """
# comments are ignored
User-agent: *
Disallow: /internal/
Disallow: /tmp
Allow: /internal/public/
Crawl-delay: 2

User-agent: badbot
Disallow: /

Sitemap: https://www.x.example/sitemap.xml
"""


def test_parse_basic_rules():
    policy = parse_robots_txt(SAMPLE)
    assert not policy.allowed("https://www.x.example/internal/search?x=1")
    assert not policy.allowed("https://www.x.example/tmp/file")
    assert policy.allowed("https://www.x.example/data/file.csv")
    assert policy.crawl_delay == 2.0
    assert policy.sitemaps == ["https://www.x.example/sitemap.xml"]


def test_allow_overrides_shorter_disallow():
    policy = parse_robots_txt(SAMPLE)
    assert policy.allowed("https://www.x.example/internal/public/doc")


def test_specific_agent_group():
    policy = parse_robots_txt(SAMPLE, user_agent="badbot")
    assert not policy.allowed("https://www.x.example/anything")


def test_multiple_agents_share_group():
    text = "User-agent: a\nUser-agent: b\nDisallow: /x/\n"
    for agent in ("a", "b"):
        policy = parse_robots_txt(text, user_agent=agent)
        assert not policy.allowed("https://s.example/x/page")


def test_empty_robots_allows_everything():
    policy = parse_robots_txt("")
    assert policy.allowed("https://s.example/anything")


def test_query_string_included_in_path_match():
    policy = parse_robots_txt("User-agent: *\nDisallow: /search?\n")
    assert not policy.allowed("https://s.example/search?q=x")
    assert policy.allowed("https://s.example/search-tips")


def _two_split_allowed(policy, url):
    """The rule as it was first written: the URL split once for its path
    and again for its query, whatever the policy."""
    path = urlsplit(url).path or "/"
    query = urlsplit(url).query
    if query:
        path = f"{path}?{query}"
    best_allow = -1
    best_disallow = -1
    for rule in policy.allow:
        if rule and path.startswith(rule):
            best_allow = max(best_allow, len(rule))
    for rule in policy.disallow:
        if rule and path.startswith(rule):
            best_disallow = max(best_disallow, len(rule))
    return best_allow >= best_disallow


_POLICIES = [
    parse_robots_txt(SAMPLE),
    parse_robots_txt(SAMPLE, user_agent="badbot"),
    parse_robots_txt("User-agent: a\nUser-agent: b\nDisallow: /x/\n", user_agent="b"),
    parse_robots_txt(""),
    parse_robots_txt("User-agent: *\nDisallow: /search?\n"),
    parse_robots_txt("User-agent: *\nAllow: /p\nDisallow: /p/q?\nDisallow: /\n"),
]
_ROBOTS_URLS = [
    "https://www.x.example/internal/search?x=1",
    "https://www.x.example/tmp/file",
    "https://www.x.example/data/file.csv",
    "https://www.x.example/internal/public/doc",
    "https://s.example/x/page",
    "https://s.example/anything",
    "https://s.example/search?q=x",
    "https://s.example/search-tips",
]


def _answer(allowed, url):
    try:
        return allowed(url)
    except ValueError:
        return ValueError


@given(
    st.sampled_from(_POLICIES),
    st.one_of(
        st.sampled_from(_ROBOTS_URLS),
        st.builds(
            "".join,
            st.lists(
                st.sampled_from(
                    ["https://", "s.example", "/", "?", "#", "search", "x", "tmp",
                     "internal", "public", "p", "q", "=", "[", "]", ":", " "]
                ),
                max_size=12,
            ),
        ),
    ),
)
@settings(max_examples=300)
def test_allowed_equals_two_split_rule(policy, url):
    """One split gives the two-split rule's answer.  A policy without
    rules allows every URL without parsing it, so only there may a URL
    that urlsplit rejects be allowed instead of raising."""
    expected = _answer(lambda u: _two_split_allowed(policy, u), url)
    if expected is ValueError and not policy.allow and not policy.disallow:
        expected = True
    assert _answer(policy.allowed, url) == expected


#: pieces of the part after the authority: separators in every order,
#: characters urlsplit strips or rejects, and non-ASCII
_URL_TAIL = st.lists(
    st.sampled_from(["/", "?", "#", ";", "=", "&", "a", "B", "x", "p", "q", "-",
                     ".", ":", "@", "[", "]", " ", "\t", "\r", "\n", "%2F",
                     "\u00e9", "//"]),
    max_size=8,
).map("".join)

_URLS = st.one_of(
    st.sampled_from(_ROBOTS_URLS),
    # plain absolute URLs, and URLs one authority or path character
    # away from them
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["http://", "https://"]),
            st.one_of(
                st.sampled_from(["s.example", "www.x.example", "a-b.c-d", "a.b"]),
                st.sampled_from(["a[.b", "b].c", "[::1]", "A.b", "u@a.b",
                                 "a.b:80", "a.b:", "\u00e9.b"]),
            ),
            st.sampled_from(["", "/", "?", "#"]),
            st.one_of(
                st.text(alphabet=" !$&'()*+,-./09:=?@AZ[]_az{|}~#", max_size=12),
                st.text(alphabet=" !$&'()*+,-./09:;=?@AZ[]_az{|}~#\u00e9\t",
                        max_size=12),
            ),
        ),
    ),
    st.builds(
        lambda lead, scheme, userinfo, host, port, tail:
            f"{lead}{scheme}{userinfo}{host}{port}{tail}",
        st.sampled_from(["", "", " ", "  ", "\t"]),
        st.sampled_from(["http://", "https://", "HTTP://", "Https://",
                         "ftp://", "http:", "http:/", "//", ""]),
        st.sampled_from(["", "", "user@", "u:p@", "a.b@"]),
        st.sampled_from(["s.example", "www.x.example", "a-b.c-d", "S.Example",
                         "localhost", "a.b", "[::1]", "a[.b", "b].c", "a.b]",
                         "\u00e9.example", "xn--e.example", "a..b", ""]),
        st.sampled_from(["", "", ":80", ":8080", ":", ":x"]),
        _URL_TAIL,
    ),
    st.text(
        alphabet="htps:/.abcAC=-[]@?#;\t\n \u00e9",
        max_size=30,
    ).map(lambda rest: "http://" + rest),
)

_RULES = st.lists(
    st.one_of(
        st.sampled_from(["/", "/p", "/x/", "/search?", "/a?b", "/?", "/#",
                         "/;", "/\u00e9", ":80", "@"]),
        st.text(alphabet="/?#;=apqx-:\u00e9", max_size=5),
    ),
    max_size=3,
)


@given(
    st.builds(lambda allow, disallow: RobotsPolicy(disallow=disallow, allow=allow),
              _RULES, _RULES),
    _URLS,
)
@example(RobotsPolicy(disallow=["/"]), "http://=A=a[.C@c-c/-B")
@settings(max_examples=1000)
def test_allowed_equals_urlsplit_rule(policy, url):
    """Plain absolute URLs are cut without ``urlsplit``; every URL,
    however hostile, under random rules, gets the answer (or the
    ``ValueError``) of the rule that split them all.  The example is a
    URL an authority pattern that did not anchor the path at its first
    ``/`` took for plain, where ``urlsplit`` raises ``Invalid IPv6 URL``."""
    if not policy.allow and not policy.disallow:
        expected = True
    else:
        expected = _answer(lambda u: _two_split_allowed(policy, u), url)
    assert _answer(policy.allowed, url) == expected


def test_parse_sitemap():
    xml = (
        '<?xml version="1.0"?><urlset>'
        "<url><loc>https://s.example/a</loc></url>"
        "<url><loc> https://s.example/b </loc></url>"
        "</urlset>"
    )
    assert parse_sitemap(xml) == ["https://s.example/a", "https://s.example/b"]
    assert parse_sitemap("no xml here") == []


# -- server integration -----------------------------------------------------

@pytest.fixture(scope="module")
def trap_env():
    graph = generate_site(
        make_profile(name="trapsite", n_pages=200, trap_pages=40)
    )
    return CrawlEnvironment(graph)


def test_server_serves_robots_and_sitemap(trap_env):
    client = trap_env.new_client()
    robots = client.get(trap_env.root_url.rstrip("/") + "/robots.txt")
    assert robots.ok
    assert "Disallow: /internal/" in robots.body
    assert not client.trace.records[-1].is_target
    sitemap = client.get(trap_env.root_url.rstrip("/") + "/sitemap.xml")
    assert sitemap.ok
    urls = parse_sitemap(sitemap.body)
    assert trap_env.root_url in urls
    assert not client.trace.records[-1].is_target


def test_fetch_robots_policy_missing_file(small_env):
    # small_env has robots (default); build one without.
    graph = generate_site(
        make_profile(name="norobots", n_pages=120, with_robots=False)
    )
    env = CrawlEnvironment(graph)
    client = env.new_client()
    policy = fetch_robots_policy(client, env.root_url)
    assert policy.allowed("https://www.testsite.example/anything")


def test_polite_sb_skips_trap(trap_env):
    result = sb_oracle(SBConfig(seed=1)).crawl(trap_env)
    trap_fetches = [
        r for r in result.trace.records if "/internal/search" in r.url
    ]
    assert trap_fetches == []
    assert result.targets == trap_env.target_urls()


def test_impolite_dfs_falls_into_trap(trap_env):
    """The paper: DFS 'may fall into robot traps'."""

    class ImpoliteDFS(DFSCrawler):
        respect_robots = False

    result = ImpoliteDFS().crawl(trap_env)
    trap_fetches = [
        r for r in result.trace.records if "/internal/search" in r.url
    ]
    assert len(trap_fetches) >= 40  # crawled the whole trap chain


def test_polite_bfs_skips_trap(trap_env):
    result = BFSCrawler().crawl(trap_env)
    assert not [r for r in result.trace.records if "/internal/search" in r.url]
    assert result.targets == trap_env.target_urls()


def test_empty_disallow_value_is_ignored():
    policy = parse_robots_txt("User-agent: *\nDisallow:\n")
    assert policy.allowed("https://s.example/anything")
    assert policy.disallow == []


def test_equal_length_allow_wins_tie():
    policy = parse_robots_txt("User-agent: *\nDisallow: /a/\nAllow: /a/\n")
    assert policy.allowed("https://s.example/a/page")


def test_unknown_directives_and_garbage_delay_ignored():
    text = (
        "User-agent: *\n"
        "Noindex: /x/\n"
        "Crawl-delay: soon\n"
        "Disallow: /y/\n"
    )
    policy = parse_robots_txt(text)
    assert policy.crawl_delay is None
    assert policy.allowed("https://s.example/x/page")
    assert not policy.allowed("https://s.example/y/page")


def test_directive_keys_case_insensitive():
    policy = parse_robots_txt("USER-AGENT: *\nDISALLOW: /z/\n")
    assert not policy.allowed("https://s.example/z/page")


def test_user_agent_lookup_case_insensitive():
    policy = parse_robots_txt("User-agent: BadBot\nDisallow: /\n",
                              user_agent="badbot")
    assert not policy.allowed("https://s.example/anything")


def test_fetch_robots_policy_degrades_when_robots_unreachable(small_site):
    """An abandoned robots.txt fetch (all-timeouts fault plan) must fall
    back to allow-everything, not crash the crawl setup."""
    from repro.http.client import RetryPolicy
    from repro.http.faults import FaultPlan, FaultSpec

    env = CrawlEnvironment(
        small_site,
        fault_plan=FaultPlan(FaultSpec(rate=1.0, kinds=("timeout",)), seed=1),
        retry_policy=RetryPolicy(seed=1, max_attempts=2),
    )
    client = env.new_client()
    policy = fetch_robots_policy(client, env.root_url)
    assert policy.allowed(env.root_url + "/anything")


def test_sb_robots_can_be_disabled(trap_env):
    result = sb_oracle(SBConfig(seed=1, respect_robots=False)).crawl(trap_env)
    trap_fetches = [
        r for r in result.trace.records if "/internal/search" in r.url
    ]
    assert trap_fetches  # wasted requests in the trap
