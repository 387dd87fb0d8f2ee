"""HTML substrate: DOM construction, page rendering and parsing.

Generated pages are rendered to *real* HTML text and crawlers parse that
text back into links and tag paths — the same round trip a live crawler
performs, so tag-path extraction (the heart of the paper's method) is
exercised for real rather than read off graph internals.
"""

from repro.html.dom import DomElement, parse_segment, render_segment
from repro.html.parse import ParsedPage, parse_page
from repro.html.render import render_page

__all__ = [
    "DomElement",
    "parse_segment",
    "render_segment",
    "ParsedPage",
    "parse_page",
    "render_page",
]
