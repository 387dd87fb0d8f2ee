"""Tests for the experiment harness (small scale)."""

import math

import pytest

from repro.baselines import CRAWLER_NAMES, make_crawler
from repro.experiments.config import ExperimentConfig, scaled_early_stopping
from repro.experiments.figures import (
    compute_figure4,
    compute_figure5,
    compute_figure15,
)
from repro.experiments.report import ascii_curve, fmt_cell, render_table
from repro.experiments.runner import (
    CRAWLER_ORDER,
    ResultCache,
    default_cache,
)
from repro.experiments.table1 import compute_table1
from repro.experiments.table2 import compute_table2
from repro.experiments.table3 import compute_table3
from repro.experiments.table4 import compute_table4
from repro.experiments.table5 import compute_table5
from repro.experiments.table6 import compute_table6
from repro.experiments.table7 import compute_table7

SCALE = 0.12
SITES = ("cl", "qa")
CONFIG = ExperimentConfig(scale=SCALE, sb_runs=1, seeds=(1,), sites=SITES)


@pytest.fixture(scope="module")
def cache():
    return ResultCache(scale=SCALE)


def test_crawler_factory_all_names():
    assert set(CRAWLER_ORDER) < set(CRAWLER_NAMES)
    for name in CRAWLER_NAMES:
        assert make_crawler(name, seed=1).name == name
    with pytest.raises(ValueError):
        make_crawler("NOPE")


def test_result_cache_memoises(cache):
    a = cache.run("qa", "BFS")
    b = cache.run("qa", "BFS")
    assert a is b
    assert cache.env("qa") is cache.env("qa")


def test_run_seeds_deduplicates_deterministic(cache):
    results = cache.run_seeds("qa", "BFS", seeds=(1, 2, 3))
    assert len(results) == 1
    results = cache.run_seeds("qa", "SB-CLASSIFIER", seeds=(1, 2))
    assert len(results) == 2


def test_default_cache_shared():
    assert default_cache(0.5) is default_cache(0.5)
    assert default_cache(0.5) is not default_cache(0.25)


def test_table1(cache):
    result = compute_table1(cache=cache, sites=SITES)
    assert len(result.rows) == 2
    rendered = result.render()
    assert "cl" in rendered and "qa" in rendered
    row = result.rows[0]
    assert row.n_available > 0
    assert 0 < row.target_density_pct < 100


def test_table2(cache):
    result = compute_table2(CONFIG, cache)
    assert set(result.measured) == set(CRAWLER_ORDER)
    for values in result.measured.values():
        assert len(values) == len(SITES)
        for value in values:
            assert value > 0 or math.isinf(value)
    assert len(result.saved_requests) == len(SITES)
    assert "Table 2" in result.render()


def test_table3(cache):
    result = compute_table3(CONFIG, cache)
    for values in result.measured.values():
        assert len(values) == len(SITES)
    assert "Table 3" in result.render()


def test_table4(cache):
    result = compute_table4(CONFIG, cache, sites=("qa",))
    assert "alpha=2sqrt2" in result.rows
    assert "n=2" in result.rows
    assert "theta=0.75" in result.rows
    for values in result.rows.values():
        assert len(values) == 1
    assert "Table 4" in result.render()


def test_table5(cache):
    result = compute_table5(CONFIG, cache, sites=("qa",))
    assert len(result.measured) == 8
    assert "URL_ONLY-LR" in result.measured
    assert all(0 <= mr <= 100 for mr in result.mr.values())
    rendered = result.render()
    assert "Table 5" in rendered and "Confusion" in rendered


def test_table6(cache):
    result = compute_table6(CONFIG, cache)
    assert len(result.means) == len(SITES)
    assert all(m >= 0 for m in result.means)
    assert "Table 6" in result.render()


def test_table7(cache):
    result = compute_table7(CONFIG, cache, sites=("in",), sample_size=10)
    assert len(result.yields_pct) == 1
    assert 0 <= result.yields_pct[0] <= 100
    assert "Table 7" in result.render()


def test_figure4(cache):
    result = compute_figure4(CONFIG, cache, sites=("qa",),
                             crawlers=("SB-ORACLE", "BFS"))
    assert len(result.sites) == 1
    curves = result.sites[0].curves
    assert {c.crawler for c in curves} == {"SB-ORACLE", "BFS"}
    for curve in curves:
        assert curve.targets == sorted(curve.targets)  # cumulative
    assert result.final_targets("qa", "BFS") > 0
    assert "Figure 4" in result.render()


def test_figure5(cache):
    result = compute_figure5(CONFIG, cache, sites=("qa",))
    rewards = result.top_rewards["qa"]
    assert rewards == sorted(rewards, reverse=True)
    assert "Figure 5" in result.render()


def test_figure15(cache):
    result = compute_figure15("cl", CONFIG, cache)
    assert result.targets
    assert "Figure 15" in result.render()


def test_scaled_early_stopping_monotone():
    small = scaled_early_stopping(500)
    large = scaled_early_stopping(50_000)
    assert small["es_window"] < large["es_window"]


def test_report_helpers():
    assert fmt_cell(None) == "    NA"
    assert fmt_cell(math.inf).strip() == "+inf"
    assert fmt_cell(12.345).strip() == "12.3"
    table = render_table("T", ["a"], [("row", [1.0])])
    assert "T" in table and "row" in table
    plot = ascii_curve([0, 1, 2], [0, 1, 4], title="p")
    assert "p" in plot and "*" in plot
    assert "no data" in ascii_curve([], [], title="q")
