"""Tests for the experiment harness (small scale)."""

import gc
import math
import weakref

import pytest

import repro.experiments.runner as runner_module
import repro.webgraph.sites as sites_module

from repro.baselines import CRAWLER_NAMES, SEEDLESS_CRAWLERS, make_crawler
from repro.campaign import (
    CrawlSpec,
    MultiprocessingBackend,
    SerialBackend,
    trace_digest,
    trace_name,
)
from repro.core.crawler import SBConfig
from repro.core.early_stopping import scaled_early_stopping
from repro.experiments.config import ExperimentConfig
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
from repro.http.environment import CrawlEnvironment
from repro.obs.sinks import read_events
from repro.webgraph.sites import load_paper_site

SCALE = 0.12
SITES = ("cl", "qa")
CONFIG = ExperimentConfig(scale=SCALE, seeds=(1,), sites=SITES)


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
    assert cache.facts("qa") is cache.facts("qa")


def test_seed_specs_collapse_seedless_crawlers(cache):
    assert len(cache.seed_specs("qa", "BFS", seeds=(1, 2, 3))) == 1
    assert len(cache.seed_specs("qa", "SB-CLASSIFIER", seeds=(1, 2))) == 2


def test_seed_specs_keep_every_seed_of_seeded_crawlers(cache):
    """Every crawler make_crawler hands a seed is averaged over all the
    seeds (FOCUSED's SGD model and TP-OFF's HNSW levels take it)."""
    for name in CRAWLER_ORDER:
        if name not in SEEDLESS_CRAWLERS:
            assert len(cache.seed_specs("qa", name, seeds=(1, 2))) == 2, name


@pytest.mark.parametrize("name", SEEDLESS_CRAWLERS)
def test_seedless_crawlers_ignore_the_seed(name):
    """The seedless list cannot drift from make_crawler: each crawler
    it names crawls the same under two seeds."""
    digests = {
        trace_digest(make_crawler(name, seed=seed).crawl(
            CrawlEnvironment(load_paper_site("qa", scale=0.05))
        ).trace)
        for seed in (1, 2)
    }
    assert len(digests) == 1


def test_spec_normalises_what_make_crawler_overrides():
    default = CrawlSpec("qa", "SB-ORACLE", 3)
    assert CrawlSpec("qa", "SB-ORACLE", 3, sb_config=SBConfig(seed=9)) == default
    assert CrawlSpec(
        "qa", "SB-ORACLE", 3, sb_config=SBConfig(alpha=2.0 * math.sqrt(2.0))
    ) == default
    assert default.sb_config == SBConfig(seed=3, use_oracle=True)
    assert CrawlSpec("qa", "BFS", sb_config=SBConfig(theta=0.5)).sb_config is None
    assert trace_name(default) == "qa-SB-ORACLE-s3.jsonl"
    assert trace_name(CrawlSpec(
        "qa", "SB-ORACLE", 3, sb_config=SBConfig(ngram_n=1, theta=0.5)
    )) == "qa-SB-ORACLE-s3-theta=0.5,ngram_n=1.jsonl"


class CountingBackend(SerialBackend):
    """The serial backend, counting the crawls it runs."""

    def __init__(self) -> None:
        super().__init__()
        self.n_crawls = 0

    def run_tasks(self, tasks):
        self.n_crawls += sum(len(task.specs) for task in tasks)
        return super().run_tasks(tasks)


def test_memo_is_keyed_by_value():
    """Table 4's default-valued rows and Table 5's URL_ONLY-LR are the
    default SB runs Table 2 already made."""
    backend = CountingBackend()
    cache = ResultCache(scale=0.05, backend=backend)
    config = ExperimentConfig(scale=0.05, seeds=(1,), sites=("qa",))
    compute_table2(config, cache)
    before = backend.n_crawls
    compute_table4(config, cache, sites=("qa",))
    assert backend.n_crawls - before == 6
    before = backend.n_crawls
    compute_table5(config, cache, sites=("qa",))
    assert backend.n_crawls - before == 7


def test_trace_files_are_named_by_the_crawl_they_hold(tmp_path):
    """Two configs of one (site, crawler, seed) leave two traces, each
    with its own run's fetches and its config in the header."""
    cache = ResultCache(scale=SCALE, trace_dir=tmp_path)
    runs = {
        "default": cache.run("qa", "SB-CLASSIFIER"),
        "theta": cache.run("qa", "SB-CLASSIFIER",
                           sb_config=SBConfig(theta=0.5)),
    }
    assert runs["default"].n_requests != runs["theta"].n_requests
    files = {
        "default": tmp_path / "qa-SB-CLASSIFIER-s1.jsonl",
        "theta": tmp_path / "qa-SB-CLASSIFIER-s1-theta=0.5.jsonl",
    }
    assert sorted(tmp_path.iterdir()) == sorted(files.values())
    for key, path in files.items():
        meta, events = read_events(path)
        assert sum(e.kind == "fetch" for e in events) == runs[key].n_requests
        assert meta.get("config") == ({"theta": 0.5} if key == "theta" else None)


def _count_graphs(monkeypatch):
    """Wrap this process's ``load_paper_site``: the sites it generates,
    and a weakref to each graph it returns."""
    load = sites_module.load_paper_site
    sites, graphs = [], []

    def counting_load(site, scale=1.0):
        graph = load(site, scale)
        sites.append(site)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(sites_module, "load_paper_site", counting_load)
    monkeypatch.setattr(runner_module, "load_paper_site", counting_load)
    return sites, graphs


def test_pool_table_run_generates_no_graph_in_the_parent(monkeypatch):
    """On a pool the workers generate every graph: the early-stopping
    specs and the table's ground truth need none in the parent."""
    sites, _ = _count_graphs(monkeypatch)
    compute_table2(
        CONFIG, ResultCache(scale=SCALE, backend=MultiprocessingBackend(2))
    )
    assert sites == []


def test_serial_table_run_keeps_no_graph(monkeypatch):
    """In-process, each site is generated once and dropped after its
    crawls; the cache keeps only the site's facts."""
    sites, graphs = _count_graphs(monkeypatch)
    cache = ResultCache(scale=SCALE)
    compute_table2(CONFIG, cache)
    gc.collect()
    assert sorted(sites) == sorted(SITES)
    assert all(graph() is None for graph in graphs)
    assert cache.facts("qa").scale == SCALE


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


def test_tables_are_byte_identical_on_both_backends(tmp_path):
    """Table 2, Table 5 and Figure 4 on two sites and two seeds: the
    serial backend and a two-process pool give byte-identical renders
    and trace files."""
    sites = ("cl", "qa")
    config = ExperimentConfig(scale=0.05, seeds=(1, 2), sites=sites)
    renders, traces = [], []
    for name, backend in (("serial", SerialBackend()),
                          ("pool", MultiprocessingBackend(2))):
        trace_dir = tmp_path / name
        cache = ResultCache(scale=0.05, trace_dir=trace_dir, backend=backend)
        renders.append([
            compute_table2(config, cache).render(),
            compute_table5(config, cache, sites=sites).render(),
            compute_figure4(config, cache, sites=sites).render(),
        ])
        traces.append({
            path.name: path.read_bytes() for path in trace_dir.iterdir()
        })
    assert renders[0] == renders[1]
    assert traces[0] == traces[1]
    # per site: 5 seeded crawlers x 2 seeds, BFS, DFS, the early-stopping
    # run and the 7 non-default classifier variants
    assert len(traces[0]) == 2 * (5 * 2 + 2 + 1 + 7)
