"""Render a generated page into HTML text.

The renderer materialises the tag paths declared on the page's links
into a real DOM: link tag paths sharing a prefix share the corresponding
ancestor elements (exactly like a CMS layout), anchors are emitted with
``href`` and anchor text, and deterministic filler paragraphs pad the
body so the response size matches the page's sampled size.  An element
is a list ``[open tag, close tag, children (elements or escaped text),
index (canonical segment -> first child element with it)]``.

Invariant (tested): parsing the rendered HTML recovers exactly the
page's declared ``(url, tag_path, anchor)`` link set.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from html import escape
from urllib.parse import urlsplit

from repro.html.dom import parse_segment, render_segment
from repro.webgraph.model import Link, Page, host_in_site, registrable_host

_FILLER_WORDS = (
    "official figures for the reporting period are compiled by the national "
    "statistical service and published in accordance with the dissemination "
    "calendar the tables cover demographic economic and social indicators "
    "methodological notes accompany each release"
).split()

_NEEDS_ESCAPE = re.compile("[&<>\"']")


def _escape(text: str) -> str:
    """``html.escape(text)``, skipped when there is nothing to escape."""
    return escape(text) if _NEEDS_ESCAPE.search(text) else text


def _node(open_tag: str, close_tag: str, children: list | None = None) -> list:
    return [open_tag, close_tag, [] if children is None else children, {}]


def _filler_sentence(seed_text: str, index: int) -> str:
    digest = hashlib.blake2b(
        f"{seed_text}:{index}".encode("utf-8"), digest_size=4
    ).digest()
    start = digest[0] % len(_FILLER_WORDS)
    length = 8 + digest[1] % 10
    words = [_FILLER_WORDS[(start + i) % len(_FILLER_WORDS)] for i in range(length)]
    return " ".join(words).capitalize() + "."


def _href_form(page_url: str, page_host: str, link_url: str) -> str:
    """How this href is written in the HTML: absolute, path-absolute or
    fragment-decorated.  Deterministic per (page, link) so rendering is
    stable; real pages mix all three forms, and crawlers must resolve
    them (``repro.webgraph.canonical``).  ``page_host`` is the page's
    ``registrable_host``."""
    digest = hashlib.blake2b(
        f"{page_url}|{link_url}".encode("utf-8"), digest_size=2
    ).digest()
    selector = digest[0] % 5
    if selector == 0 and host_in_site(page_host, link_url):
        # Path-absolute href, like most CMS output.
        parts = urlsplit(link_url)
        href = parts.path or "/"
        if parts.query:
            href += f"?{parts.query}"
        return href
    if selector == 1:
        return f"{link_url}#content"
    return link_url


@lru_cache(maxsize=4096)
def _element(segment: str) -> tuple[str, str, str]:
    """(canonical segment, open tag without ``>``, close tag)."""
    tag, elem_id, classes = parse_segment(segment)
    attrs = f' id="{escape(elem_id)}"' if elem_id else ""
    if classes:
        attrs += f' class="{escape(" ".join(classes))}"'
    return render_segment(tag, elem_id, classes), f"<{tag}{attrs}", f"</{tag}>"


def _build_tree(page_url: str, links: list[Link]) -> list:
    """Merge link tag paths into one tree: a segment walks into the
    first child element with it, anchors included, or creates one."""
    root = _node("<html>", "</html>")
    page_host = registrable_host(page_url)
    parents: dict[str, list] = {}  # tag path minus its anchor -> element
    for link in links:
        head, _, last = link.tag_path.rpartition(" ")
        node = parents.get(head)
        if node is None:
            segments = link.tag_path.split(" ")
            if segments[0] != "html":
                raise ValueError(f"tag path must start at html: {link.tag_path!r}")
            node = root
            # A non-canonical segment matches no element, so each walk
            # through it creates a new one: such a walk is not cached.
            cacheable = bool(head)
            for segment in segments[1:-1]:
                child = node[3].get(segment)
                if child is None:
                    canonical, start, close = _element(segment)
                    child = _node(start + ">", close)
                    node[2].append(child)
                    node[3].setdefault(canonical, child)
                    cacheable = cacheable and canonical == segment
                node = child
            if cacheable:
                parents[head] = node
        # The final segment is the anchor itself: one element per link.
        canonical, start, close = _element(last)
        href = _escape(_href_form(page_url, page_host, link.url))
        text = [_escape(link.anchor)] if link.anchor else None
        anchor = _node(f'{start} href="{href}">', close, text)
        node[2].append(anchor)
        node[3].setdefault(canonical, anchor)
    return root


def _emit(node: list, pad: str, lines: list[str]) -> None:
    """Append ``node``'s lines, its children indented two more spaces."""
    start, close, children, _ = node
    if not children:
        lines.append(pad + start + close)
        return
    lines.append(pad + start)
    inner = pad + "  "
    for child in children:
        if child.__class__ is str:
            lines.append(inner + child)
        else:
            _emit(child, inner, lines)
    lines.append(pad + close)


def render_page(page: Page) -> str:
    """Render ``page`` to HTML whose length is ``page.size`` when possible."""
    root = _build_tree(page.url, page.links)
    body = root[3].get("body")
    if body is None:
        body = _node("<body>", "</body>")
        root[2].append(body)
    # Head with a title derived from the URL.
    title = _escape(page.url.rsplit("/", 1)[-1] or page.section or "page")
    title_node = _node("<title>", "</title>", [title])
    root[2].insert(0, _node("<head>", "</head>", [title_node]))
    # Search forms (deep-web extension).
    for index, form in enumerate(page.forms):
        elem_id = f"search-form-{index}" if index else "search-form"
        children = [
            _node(f'<select name="{_escape(name)}">', "</select>", [
                _node(f'<option value="{value}">', "</option>", [value])
                for value in map(_escape, values)
            ])
            for name, values in form.fields
        ]
        children.append(_node('<input type="submit" value="Search">', "</input>"))
        body[2].append(_node(
            f'<form id="{elem_id}" class="deep-search" '
            f'action="{_escape(form.action)}" method="get">', "</form>", children,
        ))
    # Filler paragraphs (plain words, nothing to escape) in the content area.
    paragraphs = [_node("<p>", "</p>", [_filler_sentence(page.url, index)])
                  for index in range(3)]
    body[2].append(_node('<div class="page-text">', "</div>", paragraphs))
    lines = ["<!DOCTYPE html>"]
    _emit(root, "", lines)
    remaining = page.size - (sum(map(len, lines)) + len(lines) - 1)
    if remaining > 25:
        # Pad with an HTML comment so len(body) == page.size exactly.
        lines.append(f"<!-- {'x' * (remaining - 10)} -->")
    return "\n".join(lines)
