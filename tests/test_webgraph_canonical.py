"""Tests for URL resolution and canonicalisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webgraph.canonical import canonicalize_url, resolve_link


def test_fragment_stripped():
    assert canonicalize_url("https://x.example/a#sec") == "https://x.example/a"


def test_case_normalised_on_host_not_path():
    assert (
        canonicalize_url("HTTPS://WWW.X.Example/A/B")
        == "https://www.x.example/A/B"
    )


def test_default_port_dropped():
    assert canonicalize_url("https://x.example:443/a") == "https://x.example/a"
    assert canonicalize_url("http://x.example:80/a") == "http://x.example/a"
    assert (
        canonicalize_url("https://x.example:8443/a")
        == "https://x.example:8443/a"
    )


def test_empty_path_becomes_slash():
    assert canonicalize_url("https://x.example") == "https://x.example/"


def test_query_preserved():
    assert (
        canonicalize_url("https://x.example/a?b=1&c=2#frag")
        == "https://x.example/a?b=1&c=2"
    )


def test_resolve_path_absolute():
    assert (
        resolve_link("https://x.example/dir/page", "/files/a.csv")
        == "https://x.example/files/a.csv"
    )


def test_resolve_relative():
    assert (
        resolve_link("https://x.example/dir/page", "sub/a.csv")
        == "https://x.example/dir/sub/a.csv"
    )
    assert (
        resolve_link("https://x.example/dir/page", "../a.csv")
        == "https://x.example/a.csv"
    )


def test_resolve_absolute_passthrough():
    assert (
        resolve_link("https://x.example/p", "https://other.example/q#f")
        == "https://other.example/q"
    )


def test_resolve_fragment_only_is_same_page():
    assert resolve_link("https://x.example/p", "#top") == "https://x.example/p"


def test_malformed_port_treated_as_no_port():
    # urlsplit accepts "//::" but raises ValueError on .port access;
    # canonicalisation must degrade instead of crashing (found by the
    # idempotence property below).
    assert canonicalize_url("https://::") == "https:///"
    assert (
        resolve_link("https://www.x.example/base/page", "//::")
        == "https:///"
    )


def test_non_numeric_port_dropped():
    assert canonicalize_url("https://x.example:abc/a") == "https://x.example/a"


@given(st.text(alphabet="abc/.?#:=&", max_size=25))
@settings(max_examples=80)
def test_canonicalisation_idempotent(suffix):
    url = resolve_link("https://www.x.example/base/page", suffix)
    assert canonicalize_url(url) == url


# -- memoised resolution (CrawlEnvironment.resolve_hrefs) -----------------

#: two hosts per scheme, so a memo that ignored more of the base than
#: its scheme would answer one host's href with the other's URL
_FIXED_BASES = [
    "https://www.x.example/dir/page", "https://y.example",
    "http://www.x.example/a;b?q#f", "http://x.example",
    "HTTPS://X.example:443/", "ftp://f.example/", "https://[::1]:8080/p",
    "page.html", "",
]
_BASES = st.text(alphabet="htps:/x.e[]1\t", max_size=20)
_HREFS = st.one_of(
    st.builds(
        lambda scheme, sep, host, rest: scheme + sep + host + rest,
        st.sampled_from(["http", "https", "HTTP", "Https", "ftp", "", "h"]),
        st.sampled_from(["://", ":", ":///", "//", ":/", "\t://"]),
        st.sampled_from([
            "a.example", "A.Example", "a.example:8080", "a.example:80",
            "a.example:443", "a.example:x", "[::1]", "[::1", "u@a.example",
            "", "\t", "\n", "a\tb", "a\r.example", " ",
        ]),
        st.sampled_from([
            "", "/", "/p", "/p;", "/p;x", "/p;x?q", "?q", "?", "#f", "#",
            "/a b", "/\r", ";", "/../x", "/p\n", "/é",
        ]),
    ),
    st.text(alphabet="hts:/?#;[]\t\n\r .@%aA1-", max_size=25),
)


@given(st.lists(_HREFS, min_size=1, max_size=10), st.lists(_BASES, max_size=3))
@settings(max_examples=150, deadline=None)
def test_memoised_resolution_matches_resolve_link(small_site, hrefs, bases):
    """One environment resolves every href against every base, so
    later pairs hit the memo, exactly as ``resolve_link``, errors
    included."""
    from repro.http.environment import CrawlEnvironment

    env = CrawlEnvironment(small_site)
    for base, href in [(b, h) for b in _FIXED_BASES + bases for h in hrefs]:
        try:
            want = resolve_link(base, href)
        except ValueError:
            with pytest.raises(ValueError):
                env.resolve_hrefs(base, [href])
            continue
        assert env.resolve_hrefs(base, [href]) == [want], (base, href)


def test_memo_keeps_the_base_scheme():
    """``urljoin`` re-assembles a same-scheme href, dropping an empty
    ``;params``: the memo must not carry one base scheme's answer to
    another."""
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.generator import generate_site
    from tests.conftest import make_profile

    env = CrawlEnvironment(generate_site(make_profile(n_pages=30)))
    href = "http://a.example/b;"
    for base in ("http://x.example/", "https://x.example/", "http://y.example/"):
        assert env.resolve_hrefs(base, [href]) == [resolve_link(base, href)]
    assert resolve_link("http://x.example/", href) != resolve_link(
        "https://x.example/", href
    )
