"""Documentation sanity: the README quickstart runs, and the docs'
claims about the public API hold."""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_readme_quickstart_snippet():
    """The code block shown in README.md works as written (small scale)."""
    from repro import CrawlEnvironment, SBConfig, load_paper_site, sb_classifier

    env = CrawlEnvironment(load_paper_site("ju", scale=0.1))
    result = sb_classifier(SBConfig(seed=1)).crawl(env, budget=200)
    assert result.n_requests > 0
    assert result.n_targets >= 0


def test_package_version_matches_pyproject():
    """``repro.__version__`` is the single version the docs point at; it
    must stay in lockstep with the ``pyproject.toml`` metadata."""
    import tomllib

    import repro

    with open(REPO / "pyproject.toml", "rb") as handle:
        pyproject = tomllib.load(handle)
    assert repro.__version__ == pyproject["project"]["version"]


def test_readme_mentions_every_example():
    readme = (REPO / "README.md").read_text()
    for example in (REPO / "examples").glob("*.py"):
        assert example.name in readme, f"{example.name} missing from README"


def test_design_lists_every_subpackage():
    design = (REPO / "DESIGN.md").read_text()
    import repro

    src = Path(repro.__file__).parent
    for package in sorted(p.name for p in src.iterdir() if p.is_dir()
                          and (p / "__init__.py").exists()):
        assert f"{package}/" in design or f"{package}." in design, package


def test_top_level_api_exports_exist():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_experiments_md_covers_all_tables():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for artefact in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                     "Table 6", "Table 7", "Figure 5", "Figure 15",
                     "Proposition 4"):
        assert artefact in experiments, artefact


def test_paper_mime_list_documented():
    from repro.webgraph.mime import TARGET_MIME_TYPES

    assert len(TARGET_MIME_TYPES) == 38  # Appendix A.2


def test_api_doc_covers_top_level_exports():
    """docs/api.md names every ``repro.__all__`` export (drift gate)."""
    import repro

    api = (REPO / "docs" / "api.md").read_text()
    for name in repro.__all__:
        assert name in api, f"{name} missing from docs/api.md"


def test_api_doc_rows_name_what_exists():
    """Reverse drift gate: each docs/api.md row whose Module cell is a
    single backticked ``repro.…`` path (no ``*``) names a module that
    imports, and every plain identifier in its first cell is an
    attribute of that module."""
    import importlib
    import re

    n_rows = 0
    for line in (REPO / "docs" / "api.md").read_text().splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) < 2:
            continue
        paths = re.findall(r"`(repro[^`]*)`", cells[1])
        if (len(paths) != 1 or not cells[1].startswith(f"`{paths[0]}`")
                or "*" in paths[0]):
            continue
        n_rows += 1
        module = importlib.import_module(paths[0])
        for token in re.findall(r"`([^`]+)`", cells[0]):
            name = re.sub(r"\(.*\)$", "", token)
            if name.isidentifier():
                assert hasattr(module, name), (
                    f"docs/api.md: {paths[0]} has no {name}")
    assert n_rows > 30


def _python_blocks(markdown: str) -> list[str]:
    """The contents of every ```python fenced block, in order."""
    blocks = []
    inside = False
    current: list[str] = []
    for line in markdown.splitlines():
        if line.strip() == "```python":
            inside, current = True, []
        elif inside and line.strip() == "```":
            inside = False
            blocks.append("\n".join(current))
        elif inside:
            current.append(line)
    return blocks


def test_observability_doc_covers_every_event():
    """Every CrawlEvent subclass — name, wire tag, and each field — has
    a row in the docs/observability.md schema table."""
    import dataclasses

    from repro.obs import events as ev

    doc = (REPO / "docs" / "observability.md").read_text()
    subclasses = [cls for cls in vars(ev).values()
                  if isinstance(cls, type) and issubclass(cls, ev.CrawlEvent)
                  and cls is not ev.CrawlEvent]
    assert subclasses, "no CrawlEvent subclasses found"
    assert set(ev.EVENT_TYPES.values()) == set(subclasses), \
        "EVENT_TYPES registry out of sync with the subclasses"
    for cls in subclasses:
        assert f"`{cls.__name__}`" in doc, cls.__name__
        assert f"`{cls.kind}`" in doc, f"{cls.__name__} kind tag"
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in doc, f"{cls.__name__}.{f.name}"


def test_static_analysis_doc_covers_every_rule():
    """The catalogue tables in docs/static_analysis.md carry one row per
    registered rule — per-file and FLOW, code and name both — and name
    no rule code that is not registered (drift gate, both directions)."""
    import re

    from repro.lint import default_project_rules, default_rules

    doc = (REPO / "docs" / "static_analysis.md").read_text()
    table_rows = {
        match.group(1): match.group(2)
        for match in re.finditer(r"^\| ([A-Z]+\d+) \| ([a-z0-9-]+) \|",
                                 doc, flags=re.MULTILINE)
        if match.group(1) != "E999"  # parse errors are not a rule
    }
    registered = {rule.code: rule.name
                  for rule in [*default_rules(), *default_project_rules()]}
    assert table_rows == registered


def test_observability_doc_covers_every_metric():
    """The metric catalogue table names every registered instrument."""
    from repro.obs import MetricsObserver

    doc = (REPO / "docs" / "observability.md").read_text()
    for name in MetricsObserver().registry.names():
        assert f"`{name}`" in doc, f"metric {name} missing from catalogue"


def test_performance_doc_covers_schema_and_sections():
    """docs/performance.md documents the throughput gate: its test
    module, the committed baseline, every gated workload and every field
    of the baseline document (drift gate for the baseline's schema)."""
    import json

    doc = (REPO / "docs" / "performance.md").read_text()
    baseline = json.loads(
        (REPO / "bench_results" / "perfbench_baseline.json").read_text())
    assert "benchmarks/test_bench_perf_gate.py" in doc
    assert "bench_results/perfbench_baseline.json" in doc
    for workload, entry in baseline["workloads"].items():
        assert f"`{workload}`" in doc, f"workload {workload} missing"
        for field in entry:
            assert f"`{field}`" in doc, f"baseline field {field} missing"
    for field in baseline:
        assert f"`{field}`" in doc, f"baseline field {field} missing"


def test_observability_worked_example_runs_as_written():
    """The docs/observability.md worked example executes verbatim
    (its own asserts check event counts against the CrawlResult)."""
    doc = (REPO / "docs" / "observability.md").read_text()
    snippets = [b for b in _python_blocks(doc) if "MemorySink()" in b]
    assert snippets, "worked example block not found"
    exec(compile(snippets[0], "docs/observability.md", "exec"), {})


def test_campaign_doc_covers_engine_exports():
    """docs/campaign.md names every ``repro.campaign.__all__`` export
    (drift gate, same contract as the api.md gate)."""
    import repro.campaign

    doc = (REPO / "docs" / "campaign.md").read_text()
    for name in repro.campaign.__all__:
        assert f"`{name}`" in doc, f"{name} missing from docs/campaign.md"


def test_campaign_doc_worked_example_runs_as_written():
    """The docs/campaign.md worked example executes verbatim — it runs
    a tiny serial campaign twice and asserts the digest is stable."""
    doc = (REPO / "docs" / "campaign.md").read_text()
    snippets = [b for b in _python_blocks(doc) if "MemorySink()" in b]
    assert snippets, "worked example block not found"
    exec(compile(snippets[0], "docs/campaign.md", "exec"), {})


def test_campaign_doc_is_linked_from_entry_points():
    """The campaign engine doc is reachable from the places a reader
    starts at — README, architecture, api — and from the docs whose
    tables reference its events and metrics."""
    for path in ("README.md", "docs/architecture.md", "docs/api.md",
                 "docs/observability.md", "docs/static_analysis.md"):
        assert "campaign.md" in (REPO / path).read_text(), path


def test_checkpoint_doc_covers_api_and_manifest():
    """docs/checkpoint.md names every ``repro.checkpoint.__all__``
    export and every manifest field (drift gate for the durable-state
    subsystem's schema and API)."""
    import repro.checkpoint

    doc = (REPO / "docs" / "checkpoint.md").read_text()
    for name in repro.checkpoint.__all__:
        assert f"`{name}`" in doc, f"{name} missing from docs/checkpoint.md"
    for field in repro.checkpoint.MANIFEST_FIELDS:
        assert f"`{field}`" in doc, f"manifest field {field} missing"


def test_checkpoint_doc_kinds_table_matches_the_payloads(tmp_path):
    """Each row of docs/checkpoint.md's payload-kinds table names, in
    backticks, exactly the policy components a checkpoint of that kind
    carries (everything but the kernel's ``client``, ``robots`` and
    ``crawl``).  One crawler per kind is interrupted after a few steps."""
    import re

    from repro.baselines import CRAWLER_NAMES, make_crawler
    from repro.checkpoint import CheckpointStore, CrawlCheckpointer, CrawlInterrupted
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    doc = (REPO / "docs" / "checkpoint.md").read_text()
    rows = {
        kind: set(re.findall(r"`([a-z_]+)`", components))
        for kind, components in re.findall(
            r"^\| `([a-z-]+-crawl)` \|[^|]*\|(.*)\|$", doc, re.MULTILINE
        )
    }
    payloads = {}
    for name in CRAWLER_NAMES:
        crawler = make_crawler(name, seed=1)
        if crawler.checkpoint_kind in payloads:
            continue
        store = CheckpointStore(tmp_path / name)
        env = CrawlEnvironment(load_paper_site("qa", scale=0.05))
        with pytest.raises(CrawlInterrupted):
            crawler.crawl(env, budget=40,
                          checkpoint=CrawlCheckpointer(store, interrupt_at=3))
        components = store.read_latest().payload["components"]
        payloads[crawler.checkpoint_kind] = set(components) - {
            "client", "robots", "crawl"}
    assert rows == payloads


def test_checkpoint_doc_documents_the_cli():
    """The worked example must show the durable-campaign flags the CLI
    actually accepts."""
    doc = (REPO / "docs" / "checkpoint.md").read_text()
    for flag in ("--checkpoint", "--checkpoint-every", "--resume"):
        assert flag in doc, f"{flag} missing from docs/checkpoint.md"
    assert "kill -TERM" in doc


def test_checkpoint_doc_is_linked_from_entry_points():
    """The checkpoint doc is reachable from the places a reader starts
    at, and from the performance doc, whose errata correct how the
    benchmark counts checkpoint bytes."""
    for path in ("README.md", "docs/architecture.md", "docs/api.md",
                 "docs/performance.md"):
        assert "checkpoint.md" in (REPO / path).read_text(), path
