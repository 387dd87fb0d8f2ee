"""Tests for URL resolution and canonicalisation."""

from urllib.parse import urljoin

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


#: bases that differ in scheme, host, port and case, plus scheme-less,
#: relative, empty and malformed ones
_SITE_BASES = st.one_of(
    st.builds(
        lambda scheme, host, port, path: scheme + host + port + path,
        st.sampled_from(["http://", "https://", "HTTP://", "Https://", "ftp://",
                         "mailto:", "//", ""]),
        st.sampled_from(["a.example", "A.Example", "www.a.example",
                         "b.example", "[::1]", "[::1", "u@a.example", ""]),
        st.sampled_from(["", ":80", ":443", ":8080", ":x", ":"]),
        st.sampled_from(["", "/", "/dir/page", "/dir/", "/a;b?q#f", "page.html"]),
    ),
    st.just(""),
)
_PATH_ABSOLUTE = st.builds(
    lambda first, rest: "/" + first + rest,
    st.sampled_from(["", "a", ".", "..", ";", "?", "#", "%2F", "é", " ", ":"]),
    st.text(alphabet="ab/.;?#=&:%é ", max_size=15),
)


@given(st.lists(st.tuples(_SITE_BASES, _PATH_ABSOLUTE), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_path_absolute_hrefs_resolve_as_resolve_link(small_site, pairs):
    """Path-absolute hrefs are memoised per base scheme and netloc: in
    any call order, each answer is ``resolve_link``'s, errors included."""
    from repro.http.environment import CrawlEnvironment

    env = CrawlEnvironment(small_site)
    for base, href in pairs + pairs[::-1]:
        try:
            want = resolve_link(base, href)
        except ValueError:
            with pytest.raises(ValueError):
                env.resolve_hrefs(base, [href])
            continue
        assert env.resolve_hrefs(base, [href]) == [want], (base, href)


def test_path_absolute_memo_keeps_the_base_netloc_and_empty_base():
    """``/p;`` keeps its ``;`` under an empty base, which ``urljoin``
    does not parse, and loses it under ``x``, whose scheme and netloc
    are as empty; a port is part of the netloc."""
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.generator import generate_site
    from tests.conftest import make_profile

    env = CrawlEnvironment(generate_site(make_profile(n_pages=30)))
    for base, href in [("", "/p;"), ("x", "/p;"), ("", "/p;"),
                       ("http://a.example/", "/q"), ("http://a.example:8080/", "/q"),
                       ("http://A.example/", "/q")]:
        assert env.resolve_hrefs(base, [href]) == [resolve_link(base, href)]
    assert resolve_link("", "/p;") != resolve_link("x", "/p;")


# -- plain absolute hrefs (resolve_link without urljoin) ------------------

#: absolute hrefs near the plain form ``resolve_link`` cuts up without
#: ``urljoin``, and the ways out of it
_ABSOLUTE_HREFS = st.builds(
    lambda scheme, host, rest: scheme + host + rest,
    st.sampled_from(["http://", "https://", "HTTP://", "Https://", "ftp://",
                     "http:/", "http:", "\thttp://"]),
    st.sampled_from(["a.example", "www.a-b.example", "A.Example", "a.example:80",
                     "a.example:8080", "a.example:", "u@a.example", "u:p@a.example",
                     "localhost", "[::1]", "[::1", "a.\u00e9xample", "a.example.",
                     "1.2.3.4", ""]),
    st.text(alphabet="ab/.?#;=&:%@[] \t\r\nA\u00e9~\\", max_size=15),
)
_RESOLVE_BASES = st.sampled_from([
    "", "page.html", "../up/", "ftp://f.example/d/", "mailto:x@y.example",
    "//a.example/p", "http://x.example/d/p", "https://x.example/d/p;q?r#s",
    "HTTPS://X.Example:443/", "https://[::1]:8080/p",
])


@given(_RESOLVE_BASES, st.one_of(_ABSOLUTE_HREFS, _HREFS))
@settings(max_examples=400, deadline=None)
def test_resolve_link_is_canonicalised_urljoin(base, href):
    """Plain absolute hrefs skip ``urljoin``; every href resolves as if
    they did not, errors included."""
    try:
        want = canonicalize_url(urljoin(base, href))
    except ValueError:
        with pytest.raises(ValueError):
            resolve_link(base, href)
        return
    assert resolve_link(base, href) == want


def test_plain_absolute_hrefs_keep_query_and_drop_fragment():
    for base in ("", "ftp://f.example/", "https://x.example/d/p"):
        assert resolve_link(base, "http://a.example") == "http://a.example/"
        assert resolve_link(base, "http://a.example?q=1#f") == "http://a.example/?q=1"
        assert resolve_link(base, "https://a.example/p?#f?x") == "https://a.example/p"
        assert resolve_link(base, "https://a.example/a/../b") == "https://a.example/a/../b"
