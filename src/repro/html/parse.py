"""HTML parsing: recover hyperlinks and their DOM tag paths.

This is the crawler-side inverse of :mod:`repro.html.render`.  For every
``<a>``, ``<area>`` or ``<iframe>`` with a link attribute it emits the
root-to-element tag path (with ``#id`` / ``.class`` annotations, Sec.
2.2) plus the anchor text, and it accumulates a bounded sample of the
page text (used by the URL_CONT feature set and the TRES baseline).

:func:`parse_page` is one pass of a small tokenizer over the document.
Its rules are those of CPython 3.11's ``html.parser`` with
``convert_charrefs=True``, copied here so that crawl output does not
depend on the interpreter's patch release (later releases changed how
comments, raw text and incomplete input parse):

* text between markup is one chunk, with character references decoded;
  each chunk is stripped, and chunks are joined with single spaces;
* a ``<`` that starts no markup is a chunk of its own;
* ``<script>`` and ``<style>`` hold raw text up to their end tag, and
  an unterminated one drops the rest of the document;
* comments end at the first ``--`` followed by optional whitespace and
  ``>``; ``<!...>``, ``<?...>`` and ``</`` + non-letter are skipped up
  to the next ``>``;
* markup left open at the end of the document is text up to the next
  ``>`` (or ``<``), and parsing resumes after it.

Two rules differ from that module.  A repeated attribute keeps its
first value, as in the HTML5 tokenizer.  A ``<![`` section other than
CDATA or an MS Office conditional, on which ``html.parser`` raises, is
skipped up to the next ``>`` as the HTML5 tokenizer does.

The scanning pattern ``_TOKEN`` takes a text run and the common markup
after it in one match: a start tag whose attributes are all
double-quoted, an end tag, or a whole ``<a ...>text</a>`` with such a
start tag and no ``<`` in its text.  A whole anchor is recorded at
once, as its start tag, text and end tag would be.  Other markup
starts with a lone ``<`` and takes the general rules, after which the
scan restarts at the end of the markup they handled, so a long padding
comment is never searched ahead.

A start tag that only opens an element on the tag-path stack (not
``a``/``area``/``iframe``, ``title``, ``form``/``select``/``option``,
``script`` or ``style``) is memoised by its raw name and attribute
text: rendered pages repeat the same layout tags on every page.  The
memo holds at most ``_LAYOUT_TAGS_MAX`` entries and is emptied when
full.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from html import unescape

from repro.html.dom import render_segment
from repro.webgraph.model import Form, Link

#: Elements that never contain children (no closing tag expected).
_VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)

#: Elements whose links we extract, with the attribute holding the URL.
_LINK_ELEMENTS = {"a": "href", "area": "href", "iframe": "src"}

# -- tokenizer patterns (CPython 3.11 html.parser) ---------------------------

_FAST_ATTRS = (r'((?:[\t\n\r\f ]+[a-zA-Z_:][-a-zA-Z0-9_:.]*="[^"]*")*)'
               r'[\t\n\r\f ]*')
#: One token: a text run (group 1), which may be empty, then a whole
#: anchor, its attributes (group 2) and text (group 3); a start tag whose
#: attributes are all ``name="value"`` after ASCII whitespace (groups
#: 4-6); an end tag (group 7); a lone ``<``, which takes the general
#: rules below; or nothing, at the end of the document.  Every tag it
#: matches tokenizes as under those rules.
_TOKEN = re.compile(
    r'([^<]*)(?:<(?:[aA]' + _FAST_ATTRS + r'>([^<]*)</\s*[aA]\s*>'
    r'|([a-zA-Z][^\t\n\r\f />\x00]*)' + _FAST_ATTRS + r'(/?)>'
    r'|/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>)?)?'
)
_QUOTED_ATTR = re.compile(r'([a-zA-Z_:][-a-zA-Z0-9_:.]*)="([^"]*)"')
_ASCII_LETTERS = frozenset(string.ascii_letters)
#: characters after which an unfinished start tag waits for more input
_START_TAG_PENDING = _ASCII_LETTERS | {"=", "/"}
_TAG_FIND = re.compile(r'([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*')
_ATTR_FIND = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_START_TAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_END_TAG = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')
_COMMENT_CLOSE = re.compile(r'--\s*>')
_DECL_NAME = re.compile(r'[a-zA-Z][-_.a-zA-Z0-9]*\s*')
_MARKED_SECTION_CLOSE = re.compile(r']\s*]\s*>')
_MS_MARKED_SECTION_CLOSE = re.compile(r']\s*>')
#: start tags with an effect beyond the tag-path stack (never memoised)
_NOT_LAYOUT = frozenset(
    {*_LINK_ELEMENTS, "title", "form", "select", "option", "script", "style"}
)
#: end tags with an effect beyond popping the tag-path stack
_NOT_LAYOUT_END = frozenset({*_LINK_ELEMENTS, "title", "form", "select"})
#: raw ``name + attribute text`` -> (segment, bare tag, void) of a layout
#: start tag matched by ``_TOKEN``
_LAYOUT_TAGS: dict[str, tuple[str, str, bool]] = {}
_LAYOUT_TAGS_MAX = 4096
#: end of the raw text opened by ``<script>`` / ``<style>``
_RAW_TEXT_CLOSE = {
    tag: re.compile(r'</\s*%s\s*>' % tag, re.I) for tag in ("script", "style")
}


@dataclass
class ParsedPage:
    """Result of parsing one HTML document."""

    links: list[Link] = field(default_factory=list)
    text: str = ""
    title: str = ""
    #: GET search forms found on the page (deep-web extension); their
    #: ``result_urls`` are always empty — a crawler must enumerate.
    forms: list[Form] = field(default_factory=list)


class _PageBuilder:
    """Stack-based tag-path tracker fed by the tokenizer."""

    def __init__(self, text_limit: int) -> None:
        self.stack: list[str] = []
        #: bare tag of each stack segment (text up to the first ``#``/``.``)
        self.bare_stack: list[str] = []
        self.links: list[Link] = []
        self.pending: list[tuple[str, str, list[str]]] = []  # url, path, texts
        self.text_parts: list[str] = []
        self.text_len = 0
        self.text_limit = text_limit
        self.in_title = False
        self.title_parts: list[str] = []
        self.forms: list[Form] = []
        self.form_action: str | None = None
        self.form_fields: list[tuple[str, list[str]]] = []
        self.select_name: str | None = None

    def start(self, tag: str, attrs: dict[str, str | None],
              closed: bool) -> None:
        """A start tag; ``closed`` for the self-closing ``<tag/>`` form,
        which only records a link.  ``attrs`` holds the first value of
        each attribute, as in the HTML5 tokenizer."""
        segment = _segment(tag, attrs)
        url_attr = _LINK_ELEMENTS.get(tag)
        url = attrs.get(url_attr) if url_attr else None
        if closed:
            if url:
                path = " ".join(self.stack + [segment])
                self.links.append(Link(url=url, tag_path=path, anchor=""))
            return
        if tag == "title":
            self.in_title = True
        elif tag == "form":
            self.form_action = attrs.get("action") or ""
            self.form_fields = []
        elif tag == "select" and self.form_action is not None:
            self.select_name = attrs.get("name") or f"f{len(self.form_fields)}"
            self.form_fields.append((self.select_name, []))
        elif tag == "option" and self.select_name is not None:
            value = attrs.get("value")
            if value and self.form_fields:
                self.form_fields[-1][1].append(value)
        if url:
            self.pending.append((url, " ".join(self.stack + [segment]), []))
        if tag not in _VOID_ELEMENTS:
            self.stack.append(segment)
            self.bare_stack.append(tag.split("#")[0].split(".")[0])

    def end(self, tag: str) -> None:
        if tag == "title":
            self.in_title = False
        elif tag == "select":
            self.select_name = None
        elif tag == "form" and self.form_action is not None:
            if self.form_action and self.form_fields:
                self.forms.append(
                    Form(
                        action=self.form_action,
                        fields=tuple(
                            (name, tuple(values))
                            for name, values in self.form_fields
                            if values
                        ),
                    )
                )
            self.form_action = None
            self.form_fields = []
        # Pop the stack back to the matching open tag (tolerant of
        # mis-nesting, like real crawlers must be).
        bare_stack = self.bare_stack
        for index in range(len(bare_stack) - 1, -1, -1):
            if bare_stack[index] == tag:
                del self.stack[index:]
                del bare_stack[index:]
                break
        if tag in _LINK_ELEMENTS and self.pending:
            self._close_link()

    def anchor(self, attrs: dict[str, str | None], text: str) -> None:
        """A whole ``<a ...>text</a>`` outside ``<title>``: the link, or
        the closing of an enclosing one, and the text sample that its
        start tag, text and end tag would give."""
        stripped = text.strip()
        url = attrs.get("href")
        if url:
            path = " ".join([*self.stack, _segment("a", attrs)])
            self.links.append(Link(url, path, stripped))
        elif self.pending:
            if stripped:
                self.pending[-1][2].append(stripped)
            self._close_link()
        if stripped and self.text_len < self.text_limit:
            self.text_parts.append(stripped)
            self.text_len += len(stripped) + 1

    def _close_link(self) -> None:
        url, path, texts = self.pending.pop()
        self.links.append(Link(url=url, tag_path=path, anchor=" ".join(texts).strip()))

    def data(self, text: str) -> None:
        stripped = text.strip()
        if not stripped:
            return
        if self.in_title:
            self.title_parts.append(stripped)
        if self.pending:
            self.pending[-1][2].append(stripped)
        if self.text_len < self.text_limit:
            self.text_parts.append(stripped)
            self.text_len += len(stripped) + 1

    def result(self) -> ParsedPage:
        # Flush anchors whose closing tag never came (broken HTML).
        while self.pending:
            self._close_link()
        return ParsedPage(
            links=self.links,
            text=" ".join(self.text_parts)[: self.text_limit],
            title=" ".join(self.title_parts),
            forms=self.forms,
        )


def _segment(tag: str, attrs: dict[str, str | None]) -> str:
    """The tag-path segment of a start tag."""
    elem_id = attrs.get("id")
    classes = attrs.get("class")
    if elem_id or classes:
        return render_segment(tag, elem_id, tuple(classes.split()) if classes else ())
    return tag


def _quoted_attributes(attr_text: str) -> dict[str, str | None]:
    """The attributes ``_TOKEN`` matched, first value of each kept."""
    attrs: dict[str, str | None] = {}
    if attr_text:
        for key, value in _QUOTED_ATTR.findall(attr_text):
            if "&" in value:
                value = unescape(value)
            attrs.setdefault(key.lower(), value)
    return attrs


# -- the general rules, for markup the fast pattern does not match -----------


def _start_tag(html: str, i: int, page: _PageBuilder) -> tuple[int, str | None]:
    """Start tag at ``html[i]``: (end, raw-text element it opens), or
    end -1 if the tag is unfinished."""
    j = _START_TAG_END.match(html, i).end()
    following = html[j:j + 1]
    if following == ">":
        endpos = j + 1
    elif following == "/":
        if not html.startswith("/>", j):
            return -1, None
        endpos = j + 2
    elif not following or following in _START_TAG_PENDING:
        return -1, None
    else:
        endpos = j if j > i else i + 1
    name = _TAG_FIND.match(html, i + 1)
    tag = name.group(1).lower()
    k = name.end()
    attrs: dict[str, str | None] = {}
    while k < endpos:
        attr = _ATTR_FIND.match(html, k)
        if attr is None:
            break
        key, rest, value = attr.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        attrs.setdefault(key.lower(), value)
        k = attr.end()
    close = html[k:endpos].strip()
    if close not in (">", "/>"):
        page.data(html[i:endpos])
        return endpos, None
    if close == "/>":
        page.start(tag, attrs, True)
        return endpos, None
    page.start(tag, attrs, False)
    return endpos, tag if tag in _RAW_TEXT_CLOSE else None


def _end_tag(html: str, i: int, page: _PageBuilder) -> int:
    """End tag not matched by ``_END_TAG`` at ``html[i]``: its end, or -1."""
    if html.find(">", i + 1) < 0:
        return -1
    name = _TAG_FIND.match(html, i + 2)
    if name is None:
        if html.startswith("</>", i):
            return i + 3
        return html.find(">", i + 2) + 1
    page.end(name.group(1).lower())
    return html.find(">", name.end()) + 1


def _comment(html: str, i: int) -> int:
    """End of the comment opened at ``html[i]``, or -1.  ``str.find``
    jumps over the body: rendered pages pad themselves with one long
    comment."""
    j = i + 4
    while True:
        j = html.find("--", j)
        if j < 0:
            return -1
        close = _COMMENT_CLOSE.match(html, j)
        if close is not None:
            return close.end()
        j += 1


def _declaration(html: str, i: int) -> int:
    """End of the ``<!`` construct (not a comment) at ``html[i]``, or -1."""
    if html.startswith("<![", i):
        end = _marked_section(html, i)
        if end is not None:
            return end
    elif html[i:i + 9].lower() == "<!doctype":
        end = html.find(">", i + 9)
        return end + 1 if end >= 0 else -1
    # A bogus comment.
    end = html.find(">", i + 2)
    return end + 1 if end >= 0 else -1


def _marked_section(html: str, i: int) -> int | None:
    """End of the ``<![keyword ...]>`` section at ``html[i]``, -1 if it
    is unfinished, or None for a keyword ``html.parser`` rejects."""
    name = _DECL_NAME.match(html, i + 3)
    if name is None:
        return -1 if i + 3 == len(html) else None
    if name.end() == len(html):
        return -1
    keyword = name.group().strip().lower()
    if keyword in ("temp", "cdata", "ignore", "include", "rcdata"):
        close = _MARKED_SECTION_CLOSE.search(html, i + 3)
    elif keyword in ("if", "else", "endif"):
        close = _MS_MARKED_SECTION_CLOSE.search(html, i + 3)
    else:
        return None
    return close.end() if close is not None else -1


def parse_page(html_text: str, text_limit: int = 4000) -> ParsedPage:
    """Parse an HTML document into links (with tag paths), text and title."""
    page = _PageBuilder(text_limit)
    start, end, data, anchor = page.start, page.end, page.data, page.anchor
    stack, bare_stack = page.stack, page.bare_stack
    layout_tags = _LAYOUT_TAGS
    html = html_text
    n = len(html)
    find = html.find
    match_token = _TOKEN.match
    raw_text: str | None = None  # element whose raw text we are in
    i = 0
    while i < n:
        if raw_text is not None:
            close = _RAW_TEXT_CLOSE[raw_text].search(html, i)
            if close is None:
                break
            j = close.start()
            if i < j:
                data(html[i:j])
            k = find(">", j + 1) + 1
            name = _END_TAG.match(html, j)
            if name is not None and name.group(1).lower() == raw_text:
                end(raw_text)
                raw_text = None
            else:
                data(html[j:k])
            i = k
            continue
        token = match_token(html, i)
        text, attr_text, anchor_text, name, tag_attrs, closed, end_name = (
            token.groups()
        )
        if text and not text.isspace():  # else it strips to nothing
            data(unescape(text) if "&" in text else text)
        i = token.end()
        if name is not None:  # a start tag
            key = name + tag_attrs
            layout = layout_tags.get(key)
            if layout is None:
                tag = name.lower()
                attrs = _quoted_attributes(tag_attrs)
                if tag in _NOT_LAYOUT:
                    start(tag, attrs, closed == "/")
                    if not closed and tag in _RAW_TEXT_CLOSE:
                        raw_text = tag
                    continue
                layout = (_segment(tag, attrs), tag.split("#")[0].split(".")[0],
                          tag in _VOID_ELEMENTS)
                if len(layout_tags) >= _LAYOUT_TAGS_MAX:
                    layout_tags.clear()
                layout_tags[key] = layout
            if not (closed or layout[2]):
                stack.append(layout[0])
                bare_stack.append(layout[1])
            continue
        if end_name is not None:
            tag = end_name.lower()
            if bare_stack and bare_stack[-1] == tag and tag not in _NOT_LAYOUT_END:
                del stack[-1], bare_stack[-1]
            else:
                end(tag)
            continue
        if anchor_text is not None:
            if "&" in anchor_text:
                anchor_text = unescape(anchor_text)
            attrs = _quoted_attributes(attr_text)
            if page.in_title:
                start("a", attrs, False)
                data(anchor_text)
                end("a")
            else:
                anchor(attrs, anchor_text)
            continue
        if html[i - 1:i] != "<":  # the end of the document
            break
        i -= 1
        # A lone "<": the general rules.
        following = html[i + 1:i + 2]
        if following in _ASCII_LETTERS:
            k, raw_text = _start_tag(html, i, page)
        elif following == "/":
            k = _end_tag(html, i, page)
        elif html.startswith("<!--", i):
            k = _comment(html, i)
        elif following == "?":
            k = find(">", i + 2)
            k = k + 1 if k >= 0 else -1
        elif following == "!":
            k = _declaration(html, i)
        else:
            data("<")
            k = i + 1
        if k < 0:
            # Markup html.parser would wait on for more input (a quote
            # or terminator that never comes) is text up to the next
            # ">" (or "<"), and parsing resumes after it.
            k = find(">", i + 1)
            if k < 0:
                k = find("<", i + 1)
                if k < 0:
                    k = i + 1
            else:
                k += 1
            text = html[i:k]
            data(unescape(text) if "&" in text else text)
        i = k
    return page.result()
