"""``parse_page`` against its pinned rules.

The golden cases in ``tests/data/html_parse_cases.json`` fix its output
on hostile documents on every interpreter.  The differential test
compares it with the ``html.parser``-based extractor it replaced
(``tests/html_oracle.py``) on generated hostile HTML, on interpreters
whose ``html.parser`` still parses every golden case as recorded.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.parse import parse_page
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
