"""Tag-path segments.

A *tag-path segment* is the canonical string form of one element on a
root-to-anchor path: ``tag`` + optional ``#id`` + zero or more
``.class`` suffixes, e.g. ``div#main.container``.  A full tag path is
the space-separated segment sequence, exactly as in the paper's
examples (``html body div#main ul.datasets li a``).
"""

from __future__ import annotations


def render_segment(tag: str, elem_id: str | None, classes: tuple[str, ...]) -> str:
    """Canonical segment string: ``tag#id.cls1.cls2``."""
    out = tag
    if elem_id:
        out += f"#{elem_id}"
    for cls in classes:
        out += f".{cls}"
    return out


def parse_segment(segment: str) -> tuple[str, str | None, tuple[str, ...]]:
    """Inverse of :func:`render_segment`.

    ``"div#main.container"`` → ``("div", "main", ("container",))``.
    The id, if present, always precedes the classes in canonical form.
    """
    tag = segment
    elem_id: str | None = None
    classes: list[str] = []
    if "." in tag:
        tag, *classes = tag.split(".")
    if "#" in tag:
        tag, elem_id = tag.split("#", 1)
    if not tag:
        raise ValueError(f"segment with empty tag: {segment!r}")
    return tag, elem_id, tuple(classes)
