"""``parse_page`` against its pinned rules.

The golden cases in ``tests/data/html_parse_cases.json`` fix its output
on hostile documents on every interpreter.  The differential test
compares it with the ``html.parser``-based extractor it replaced
(``tests/html_oracle.py``) on generated hostile HTML, on interpreters
whose ``html.parser`` still parses every golden case as recorded.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html import parse as parse_module
from repro.html.parse import parse_page
from repro.html.render import render_page
from repro.webgraph.generator import generate_site
from repro.webgraph.sites import PAPER_SITES, load_paper_site
from tests.conftest import make_profile
from tests.html_oracle import CASES_PATH, oracle_parse, page_record

_CASES = json.loads(CASES_PATH.read_text(encoding="utf-8"))["cases"]


def _oracle_is_pinned() -> bool:
    """Does this interpreter's ``html.parser`` parse every golden case
    as the one the cases were recorded with?"""
    return all(
        page_record(oracle_parse(case["html"])) == case["parsed"]
        for case in _CASES
        if not case["html_parser_raises"]
    )


needs_pinned_oracle = pytest.mark.skipif(
    not _oracle_is_pinned(),
    reason="this interpreter's html.parser is not the one the golden "
    "cases were recorded with; they pin parse_page instead",
)


@pytest.mark.parametrize("case", _CASES, ids=[case["name"] for case in _CASES])
def test_golden_case(case):
    assert page_record(parse_page(case["html"])) == case["parsed"]


def test_first_duplicate_attribute_wins():
    html = (
        '<div id="one" id="two" class="c1" class="c2">'
        '<a href="/a" href="/trap">go</a><a href="" href="/b">none</a></div>'
    )
    page = parse_page(html)
    assert [(link.url, link.tag_path) for link in page.links] == [
        ("/a", "div#one.c1 a")
    ]
    assert page == oracle_parse(html)


# -- recorded output on rendered pages -------------------------------------


def _digest(pages) -> str:
    digest = hashlib.sha256()
    for page in pages:
        record = page_record(parse_page(render_page(page)))
        digest.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def test_paper_site_parses_are_unchanged():
    """Links, text, title and forms of every HTML page of the 18 paper
    sites (scale 0.03, 1,775 pages), as recorded before ``parse_page``
    scanned whole anchors and memoised layout tags."""
    pages = [
        page
        for site in sorted(PAPER_SITES)
        for page in load_paper_site(site, scale=0.03).html_pages()
    ]
    assert len(pages) == 1775
    assert _digest(pages) == (
        "7ea8e44b415ce16e10cc42928d0fade06f47450c383d9c739b4d8675605cc3ca"
    )


def test_search_form_parses_are_unchanged():
    site = generate_site(
        make_profile(name="portalsite", n_pages=250, deep_web_portals=2)
    )
    pages = site.html_pages()
    assert sum(bool(page.forms) for page in pages) == 2
    assert _digest(pages) == (
        "2abbdc68633fda05cfbd4ab81e18fd978a0d73d70407e83cdee042ab1ef93e19"
    )


def test_layout_tag_memo_stays_bounded():
    """More distinct layout tags than the memo holds: every tag path
    is still right, and the memo, emptied when full, never grows past
    its bound."""
    bound = parse_module._LAYOUT_TAGS_MAX
    count = bound + 500
    html = "".join(
        f'<div id="d{k}"><a href="/p{k}">{k}</a></div>' for k in range(count)
    )
    page = parse_page(html)
    assert [(link.url, link.tag_path, link.anchor) for link in page.links] == [
        (f"/p{k}", f"div#d{k} a", str(k)) for k in range(count)
    ]
    assert 0 < len(parse_module._LAYOUT_TAGS) <= bound
    assert parse_module._LAYOUT_TAGS[f'div id="d{count - 1}"'] == (
        f"div#d{count - 1}", "div", False
    )
    assert parse_page(html) == page


# -- differential test on hostile HTML ------------------------------------

_FRAGMENTS = st.sampled_from([
    # tags: upper case, unquoted, single-quoted and valueless attributes
    '<a href="/x">', "<A HREF=/y>", "<a href='/z' class='c d'>", "<a href>",
    "<a download href=/w>", "<a href=x/>", "<a href=/v />", "</a>", "</ a>",
    "</A >", '<div id="m" class="c">', "<DIV ID=n>", "</div>", "<p>", "</p>",
    "<li>", "<ul>", "</ul>", "<br/>", "<img src=/i>", "<iframe src=/f>",
    "</iframe>", "<area href=/ar/>", '<a href="/1" href="/2">', "<a b='x",
    '<a "q">', "<a b==c>", "<title>", "</title>",
    '<form action="/s">', "<select name=k>", "<option value=1>", "</select>",
    "</form>",
    # whole anchors: upper case, a spaced end tag, entity text, an empty
    # href, an href-less one inside an open link, one inside <title>
    '<a href="/k">x</a>', '<A HREF="/u">t</A>', '<a href="/s">s</ a >',
    '<a class="c" href="/e">Tom &amp; Jerry &lt;3</a>', '<a href="">e</a>',
    '<a href="/o">open <a>in</a>', "<a></a>", "</ a >",
    '<title><a href="/t">tt</a></title>',
    # entities, including a bare &
    "&amp;", "&lt;", "&#60;", "&#x3c;", "&copy", "&nbsp;", "&", "&bogus;",
    # comments, declarations, processing instructions, CDATA
    "<!-- c -->", "<!-- a -- b -->", "<!---->", "<!doctype html>",
    "<!DOCTYPE x>", "<?pi x?>", "<![CDATA[ <a href=/q> ]]>", "<![if x]>",
    "<![endif]>", "<!x>", "</1>", "</>",
    # raw text holding links
    '<script>var a = "<a href=/s>";</script>', "<style>p{} <a href=/t></style>",
    "<script>", "</script>", "<style>",
    # stray markup characters
    "<", ">", "x <3 y", "a < b", "</", "<!", "<?",
    # text
    "text", " word ", "\n", "\t", "é", "Next page",
])
_DOCUMENTS = st.lists(_FRAGMENTS, max_size=30).map("".join)


@needs_pinned_oracle
@given(_DOCUMENTS, st.floats(0, 1))
@settings(max_examples=400, deadline=None)
def test_parse_page_matches_html_parser(document, cut):
    """Identical output, also when the document is cut at any offset."""
    document = document[: round(len(document) * cut)]
    try:
        want = oracle_parse(document)
    except AssertionError:
        # html.parser rejects some <![ sections; parse_page skips them
        # as bogus comments (golden case "marked section html.parser
        # rejects").
        parse_page(document)
        return
    assert parse_page(document) == want
