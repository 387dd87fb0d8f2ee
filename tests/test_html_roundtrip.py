"""Render → parse round-trip tests: the crawler must recover exactly the
links (URL, tag path, anchor) that the generator declared."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.parse import parse_page
from repro.html.render import render_page
from repro.webgraph.model import Link, Page, PageKind
from repro.webgraph.sites import PAPER_SITES, load_paper_site
from tests.html_oracle import oracle_parse

# -- hypothesis strategies ----------------------------------------------

_tag = st.sampled_from(["div", "ul", "li", "section", "nav", "main", "span"])
_word = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


def _segment_strategy():
    return st.builds(
        lambda tag, elem_id, classes: tag
        + (f"#{elem_id}" if elem_id else "")
        + "".join(f".{c}" for c in classes),
        _tag,
        st.one_of(st.none(), _word),
        st.lists(_word, max_size=2),
    )


_tag_path = st.builds(
    lambda middle: " ".join(["html", "body"] + middle + ["a"]),
    st.lists(_segment_strategy(), min_size=0, max_size=4),
)

_anchor_text = st.text(
    alphabet="abc DEF&<>'\"éü-", min_size=0, max_size=20
).map(str.strip)

_links = st.lists(
    st.builds(
        Link,
        url=st.integers(0, 999).map(
            lambda i: f"https://www.t.example/page-{i}"
        ),
        tag_path=_tag_path,
        anchor=_anchor_text,
    ),
    min_size=0,
    max_size=12,
    unique_by=lambda l: l.url,
)


@given(_links)
@settings(max_examples=120, deadline=None)
def test_round_trip_recovers_links(links):
    from repro.webgraph.canonical import resolve_link

    page = Page(
        url="https://www.t.example/p",
        kind=PageKind.HTML,
        size=4000,
        links=links,
    )
    parsed = parse_page(render_page(page))
    want = {(l.url, l.tag_path, " ".join(l.anchor.split())) for l in links}
    got = {
        (resolve_link(page.url, l.url), l.tag_path, " ".join(l.anchor.split()))
        for l in parsed.links
    }
    assert want == got


def test_round_trip_on_generated_pages(small_site):
    from repro.webgraph.canonical import resolve_link

    for page in list(small_site.html_pages())[:40]:
        parsed = parse_page(render_page(page))
        want = {(l.url, l.tag_path, l.anchor) for l in page.links}
        got = {
            (resolve_link(page.url, l.url), l.tag_path, l.anchor)
            for l in parsed.links
        }
        assert want == got, page.url


@pytest.mark.parametrize("site", sorted(PAPER_SITES))
def test_round_trip_on_paper_sites(site):
    """Every rendered page of every paper-site profile (small scale):
    the declared links come back, and the parse is the one the
    ``html.parser``-based extractor gave."""
    from repro.webgraph.canonical import resolve_link

    for page in load_paper_site(site, scale=0.03).html_pages():
        html_text = render_page(page)
        parsed = parse_page(html_text)
        assert parsed == oracle_parse(html_text), page.url
        want = {(l.url, l.tag_path, l.anchor) for l in page.links}
        got = {
            (resolve_link(page.url, l.url), l.tag_path, l.anchor)
            for l in parsed.links
        }
        assert want == got, page.url


def test_rendered_hrefs_use_mixed_forms(small_site):
    """Pages write hrefs as path-absolute, fragment-decorated and
    absolute URLs — the realism that forces crawler-side resolution."""
    forms = {"path": 0, "fragment": 0, "absolute": 0}
    for page in list(small_site.html_pages())[:60]:
        for link in parse_page(render_page(page)).links:
            if link.url.startswith("/"):
                forms["path"] += 1
            elif "#" in link.url:
                forms["fragment"] += 1
            else:
                forms["absolute"] += 1
    assert all(count > 0 for count in forms.values()), forms


def test_rendered_size_matches_declared(small_site):
    checked = 0
    for page in small_site.html_pages():
        body = render_page(page)
        if page.size >= len(body):
            assert len(body) == page.size
            checked += 1
    assert checked > 0


def test_parser_extracts_title_and_text():
    page = Page(
        url="https://www.t.example/p",
        kind=PageKind.HTML,
        size=3000,
        links=[Link("https://www.t.example/x", "html body div.c a", "Go")],
    )
    parsed = parse_page(render_page(page))
    assert parsed.title
    assert parsed.text


def test_parser_tolerates_broken_html():
    broken = "<html><body><div><a href='https://x.example/y'>click<p>mid</body>"
    parsed = parse_page(broken)
    assert len(parsed.links) == 1
    assert parsed.links[0].url == "https://x.example/y"


def test_parser_handles_self_closing_and_iframe():
    html = (
        "<html><body>"
        "<area href='https://x.example/a'/>"
        "<iframe src='https://x.example/b'></iframe>"
        "</body></html>"
    )
    parsed = parse_page(html)
    urls = {l.url for l in parsed.links}
    assert urls == {"https://x.example/a", "https://x.example/b"}


def test_anchor_without_href_ignored():
    parsed = parse_page("<html><body><a name='x'>no link</a></body></html>")
    assert parsed.links == []
