"""Tests for the dependency-free SVG charts."""

import math
import xml.etree.ElementTree as ET

import pytest

from repro.analysis.svg import LineChart


def _parse(svg_text: str) -> ET.Element:
    return ET.fromstring(svg_text)


def test_empty_chart_is_valid_svg():
    chart = LineChart(title="empty")
    root = _parse(chart.to_svg())
    assert root.tag.endswith("svg")


def test_series_become_polylines():
    chart = LineChart(title="t", x_label="x", y_label="y")
    chart.add_series("a", [0, 1, 2], [0, 1, 4])
    chart.add_series("b", [0, 1, 2], [4, 1, 0])
    root = _parse(chart.to_svg())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    # coordinates inside the viewBox
    for poly in polylines:
        for pair in poly.attrib["points"].split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= 640
            assert 0 <= y <= 400


def test_mismatched_lengths_rejected():
    chart = LineChart()
    with pytest.raises(ValueError):
        chart.add_series("a", [1, 2], [1])


def test_log_scale_handles_wide_range():
    chart = LineChart(log_y=True)
    chart.add_series("a", [1, 2, 3], [1.0, 100.0, 10000.0])
    svg = chart.to_svg()
    root = _parse(svg)
    [poly] = [e for e in root.iter() if e.tag.endswith("polyline")]
    ys = [float(p.split(",")[1]) for p in poly.attrib["points"].split()]
    # On a log scale, equal multiplicative steps are equidistant.
    assert abs((ys[0] - ys[1]) - (ys[1] - ys[2])) < 1.0


def test_marker_line_rendered():
    chart = LineChart(marker_x=5.0)
    chart.add_series("a", [0, 10], [0, 1])
    svg = chart.to_svg()
    assert "stroke-dasharray" in svg


def test_marker_outside_range_omitted():
    chart = LineChart(marker_x=99.0)
    chart.add_series("a", [0, 10], [0, 1])
    assert "stroke-dasharray" not in chart.to_svg()


def test_title_escaped():
    chart = LineChart(title="a < b & c")
    svg = chart.to_svg()
    assert "a &lt; b &amp; c" in svg
    _parse(svg)  # still valid XML


def test_save(tmp_path):
    chart = LineChart(title="saved")
    chart.add_series("a", [0, 1], [0, 1])
    out = tmp_path / "chart.svg"
    chart.save(out)
    assert out.read_text().startswith("<svg")


def test_figure_svg_helpers(small_env):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.figures import compute_figure15, compute_figure4, compute_figure5
    from repro.experiments.runner import ResultCache

    config = ExperimentConfig(scale=0.1, seeds=(1,))
    cache = ResultCache(scale=0.1)
    fig4 = compute_figure4(config, cache, sites=("qa",), crawlers=("BFS",))
    left, right = fig4.sites[0].to_svg()
    _parse(left)
    _parse(right)
    fig5 = compute_figure5(config, cache, sites=("qa",))
    _parse(fig5.to_svg())
    fig15 = compute_figure15("qa", config, cache)
    _parse(fig15.to_svg())
