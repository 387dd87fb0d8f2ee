"""Tests for the page renderer: recorded output digests, escaping and
how link tag paths merge into one tree."""

import hashlib

import pytest

from repro.html.parse import parse_page
from repro.html.render import render_page
from repro.webgraph.canonical import resolve_link
from repro.webgraph.generator import generate_site
from repro.webgraph.model import Link, Page, PageKind
from repro.webgraph.sites import PAPER_SITES, load_paper_site
from tests.conftest import make_profile


def _digest(pages) -> str:
    digest = hashlib.sha256()
    for page in pages:
        digest.update(render_page(page).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def test_paper_site_renderings_are_unchanged():
    """Every HTML page of the 18 paper sites (scale 0.03, 1,775 pages)
    renders to the bytes recorded before the renderer stopped building
    a DomElement tree."""
    pages = [
        page
        for site in sorted(PAPER_SITES)
        for page in load_paper_site(site, scale=0.03).html_pages()
    ]
    assert len(pages) == 1775
    assert _digest(pages) == (
        "219afec91ff84675d0139989a68c26253ee5fe13124903cc9d752e91e5b97ac0"
    )


def test_search_form_renderings_are_unchanged():
    """The paper sites carry no search forms; a portal site does."""
    site = generate_site(
        make_profile(name="portalsite", n_pages=250, deep_web_portals=2)
    )
    pages = site.html_pages()
    assert sum(bool(page.forms) for page in pages) == 2
    assert _digest(pages) == (
        "3df877866f8fe0eac39bfb8b7461f512e741be066b5414e969070d9c53876345"
    )


def _page(*links: Link, size: int = 0) -> Page:
    return Page(
        url="https://www.t.example/p", kind=PageKind.HTML, size=size,
        links=list(links),
    )


def test_render_page_escapes_href_and_anchor_text():
    url = 'https://www.t.example/x?a=1&b="2"'
    html = render_page(_page(Link(url, "html body div.c a", "Tom & Jerry <3")))
    assert 'a=1&amp;b=&quot;2&quot;"' in html
    assert "Tom &amp; Jerry &lt;3" in html
    assert "<3" not in html and '"2"' not in html
    (link,) = parse_page(html).links
    assert resolve_link("https://www.t.example/p", link.url) == url
    assert link.anchor == "Tom & Jerry <3"


def test_render_page_nests_elements():
    html = render_page(_page(Link("https://www.t.example/x", "html body ul li a", "X")))
    lines = html.split("\n")
    assert lines[0] == "<!DOCTYPE html>"
    order = ["<html>", "  <head>", "  <body>", "    <ul>", "      <li>",
             "      </li>", "    </ul>", "  </body>", "</html>"]
    positions = [lines.index(line) for line in order]
    assert positions == sorted(positions)


def test_a_tag_path_runs_through_an_earlier_anchor():
    """``html body a span a`` walks into the element the earlier link
    ``html body a`` rendered, as the first element with that segment."""
    page = _page(
        Link("https://www.t.example/one", "html body a", "One"),
        Link("https://www.t.example/two", "html body a span a", "Two"),
    )
    lines = render_page(page).split("\n")
    body = lines.index("  <body>")
    assert lines[body + 1].startswith('    <a href="')
    assert lines[body + 2:body + 4] == ["      One", "      <span>"]
    assert lines[body + 4].startswith('        <a href="')
    assert lines[body + 5:body + 9] == [
        "          Two", "        </a>", "      </span>", "    </a>"]
    parsed = {(link.tag_path, link.anchor) for link in parse_page("\n".join(lines)).links}
    assert parsed == {("html body a", "One"), ("html body a span a", "Two")}


def test_tag_path_must_start_at_html():
    with pytest.raises(ValueError):
        render_page(_page(Link("https://www.t.example/x", "body a", "X")))
