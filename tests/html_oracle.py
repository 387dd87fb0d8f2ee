"""The stdlib-based link extractor that ``repro.html.parse`` replaced,
kept as the test oracle for it.

It drives :class:`html.parser.HTMLParser` with the handlers the crawler
used before its own tokenizer.  Duplicate attributes follow the HTML5
tokenizer (the first one wins), as in ``parse_page``.  Its output is
that of the running interpreter's ``html.parser``, which CPython patch
releases have changed (comments, raw text, incomplete input); tests
compare against it only where that module still behaves as the one
``tests/data/html_parse_cases.json`` was recorded with.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser
from pathlib import Path

from repro.html.dom import render_segment
from repro.html.parse import ParsedPage
from repro.webgraph.model import Form, Link

_VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)
_LINK_ELEMENTS = {"a": "href", "area": "href", "iframe": "src"}


def _first_wins(attrs: list[tuple[str, str | None]]) -> dict[str, str | None]:
    """Attribute map in which a repeated attribute keeps its first value."""
    return dict(reversed(attrs))


class _LinkExtractor(HTMLParser):
    """Stack-based tag-path tracker."""

    def __init__(self, text_limit: int = 4000) -> None:
        super().__init__(convert_charrefs=True)
        self._stack: list[str] = []
        #: bare tag of each stack segment (segment text up to the first
        #: ``#``/``.``), precomputed so end-tag matching needs no splits.
        self._bare_stack: list[str] = []
        self._links: list[Link] = []
        self._pending: list[tuple[str, str, list[str]]] = []  # url, path, texts
        self._text_parts: list[str] = []
        self._text_len = 0
        self._text_limit = text_limit
        self._in_title = False
        self._title_parts: list[str] = []
        self._forms: list[Form] = []
        self._form_action: str | None = None
        self._form_fields: list[tuple[str, list[str]]] = []
        self._select_name: str | None = None

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _segment(tag: str, attrs: list[tuple[str, str | None]]) -> str:
        attr_map = _first_wins(attrs)
        elem_id = attr_map.get("id") or None
        value = attr_map.get("class")
        classes = tuple(value.split()) if value else ()
        return render_segment(tag, elem_id, classes)

    def _record_link(self, tag: str, attrs: list[tuple[str, str | None]],
                     segment: str, closed: bool) -> bool:
        url_attr = _LINK_ELEMENTS.get(tag)
        if url_attr is None:
            return False
        url = _first_wins(attrs).get(url_attr)
        if not url:
            return False
        path = " ".join(self._stack + [segment])
        if closed:
            self._links.append(Link(url=url, tag_path=path, anchor=""))
            return False
        self._pending.append((url, path, []))
        return True

    # -- HTMLParser hooks -------------------------------------------------

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        # Most elements carry no id/class, so skip segment assembly (and
        # the attribute-map dict, needed only by a few tags) when we can.
        segment = self._segment(tag, attrs) if attrs else tag
        if tag == "title":
            self._in_title = True
        elif tag == "form":
            attr_map = _first_wins(attrs)
            self._form_action = attr_map.get("action") or ""
            self._form_fields = []
        elif tag == "select" and self._form_action is not None:
            attr_map = _first_wins(attrs)
            self._select_name = attr_map.get("name") or f"f{len(self._form_fields)}"
            self._form_fields.append((self._select_name, []))
        elif tag == "option" and self._select_name is not None:
            value = _first_wins(attrs).get("value")
            if value and self._form_fields:
                self._form_fields[-1][1].append(value)
        self._record_link(tag, attrs, segment, closed=False)
        if tag not in _VOID_ELEMENTS:
            self._stack.append(segment)
            self._bare_stack.append(segment.split("#")[0].split(".")[0])

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        segment = self._segment(tag, attrs)
        self._record_link(tag, attrs, segment, closed=True)

    def handle_endtag(self, tag: str) -> None:
        if tag == "title":
            self._in_title = False
        elif tag == "select":
            self._select_name = None
        elif tag == "form" and self._form_action is not None:
            if self._form_action and self._form_fields:
                self._forms.append(
                    Form(
                        action=self._form_action,
                        fields=tuple(
                            (name, tuple(values))
                            for name, values in self._form_fields
                            if values
                        ),
                    )
                )
            self._form_action = None
            self._form_fields = []
        # Pop the stack back to the matching open tag (tolerant of
        # mis-nesting, like real crawlers must be).
        bare_stack = self._bare_stack
        for index in range(len(bare_stack) - 1, -1, -1):
            if bare_stack[index] == tag:
                del self._stack[index:]
                del bare_stack[index:]
                break
        if tag in _LINK_ELEMENTS and self._pending:
            url, path, texts = self._pending.pop()
            self._links.append(
                Link(url=url, tag_path=path, anchor=" ".join(texts).strip())
            )

    def handle_data(self, data: str) -> None:
        stripped = data.strip()
        if not stripped:
            return
        if self._in_title:
            self._title_parts.append(stripped)
        if self._pending:
            self._pending[-1][2].append(stripped)
        if self._text_len < self._text_limit:
            self._text_parts.append(stripped)
            self._text_len += len(stripped) + 1

    # -- results ------------------------------------------------------------

    def result(self) -> ParsedPage:
        # Flush anchors whose closing tag never came (broken HTML).
        while self._pending:
            url, path, texts = self._pending.pop()
            self._links.append(
                Link(url=url, tag_path=path, anchor=" ".join(texts).strip())
            )
        return ParsedPage(
            links=self._links,
            text=" ".join(self._text_parts)[: self._text_limit],
            title=" ".join(self._title_parts),
            forms=self._forms,
        )


def oracle_parse(html_text: str, text_limit: int = 4000) -> ParsedPage:
    """``parse_page`` as it was built on :class:`html.parser.HTMLParser`."""
    extractor = _LinkExtractor(text_limit=text_limit)
    extractor.feed(html_text)
    extractor.close()
    return extractor.result()


# -- golden cases ---------------------------------------------------------

CASES_PATH = Path(__file__).parent / "data" / "html_parse_cases.json"


def page_record(page: ParsedPage) -> dict:
    """A parsed page as plain JSON data."""
    return {
        "links": [[link.url, link.tag_path, link.anchor] for link in page.links],
        "text": page.text,
        "title": page.title,
        "forms": [
            [form.action, [[name, list(values)] for name, values in form.fields]]
            for form in page.forms
        ],
    }


def record_cases(path: Path = CASES_PATH) -> None:
    """Re-record the expected output of every case in ``path`` with the
    oracle.  Run it on an interpreter whose ``html.parser`` matches the
    one the file names; a case on which ``html.parser`` raises keeps
    the output of ``parse_page``."""
    from repro.html.parse import parse_page

    data = json.loads(path.read_text(encoding="utf-8"))
    for case in data["cases"]:
        try:
            page = oracle_parse(case["html"])
            case["html_parser_raises"] = False
        except AssertionError:
            page = parse_page(case["html"])
            case["html_parser_raises"] = True
        case["parsed"] = page_record(page)
    path.write_text(
        json.dumps(data, indent=1, ensure_ascii=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.html_oracle
    record_cases()
