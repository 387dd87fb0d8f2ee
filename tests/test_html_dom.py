"""Tests for tag-path segments."""

import pytest

from repro.html.dom import parse_segment, render_segment


def test_segment_round_trip():
    for segment in ("div", "div#main", "div.a.b", "div#x.a", "a.download"):
        tag, elem_id, classes = parse_segment(segment)
        assert render_segment(tag, elem_id, classes) == segment


def test_parse_segment_components():
    assert parse_segment("div#main.container") == ("div", "main", ("container",))
    assert parse_segment("ul.menu.open") == ("ul", None, ("menu", "open"))
    assert parse_segment("p") == ("p", None, ())


def test_parse_segment_rejects_empty_tag():
    with pytest.raises(ValueError):
        parse_segment("#justid")
