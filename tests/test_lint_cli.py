"""Exit-code and output-format tests for ``python -m repro.lint``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _isolate_default_cache(tmp_path, monkeypatch):
    """Run every CLI test from a scratch directory so invocations that
    rely on the default cache path drop ``.repro-lint-cache.json``
    there, not into the developer's checkout."""
    monkeypatch.chdir(tmp_path)


CLEAN_SNIPPET = "from repro.utils.rng import derive_rng\n"
DIRTY_SNIPPET = (
    "import random\n"
    "\n"
    "\n"
    "def f(x, acc=[]):\n"
    "    acc.append(random.random())\n"
    "    return x == 0.5\n"
)


@pytest.fixture()
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY_SNIPPET)
    return path


def test_exit_zero_on_clean_file(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SNIPPET)
    assert main(["--no-config", str(path)]) == EXIT_CLEAN
    assert "clean (0 findings)" in capsys.readouterr().out


def test_exit_one_with_findings_and_locations(dirty_file, capsys):
    assert main(["--no-config", str(dirty_file)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert f"{dirty_file}:5" in out  # random.random() line
    assert "DET001" in out and "COR001" in out and "COR002" in out


def test_exit_two_on_unknown_path(tmp_path, capsys):
    assert main(["--no-config", str(tmp_path / "missing.py")]) == EXIT_USAGE
    assert "no such file" in capsys.readouterr().err


def test_exit_two_on_unknown_rule_code(dirty_file, capsys):
    assert main(["--disable", "NOPE99", str(dirty_file)]) == EXIT_USAGE
    assert "unknown rule code" in capsys.readouterr().err


def test_exit_two_on_bad_flag(dirty_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["--format", "xml", str(dirty_file)])
    assert excinfo.value.code == EXIT_USAGE


def test_json_format_is_machine_readable(dirty_file, capsys):
    assert main(["--no-config", "--format", "json", str(dirty_file)]) == \
        EXIT_FINDINGS
    document = json.loads(capsys.readouterr().out)
    assert document["tool"] == "repro.lint"
    assert document["count"] == len(document["findings"]) >= 3
    first = document["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "message",
                          "category"}
    assert first["category"] == first["rule"].rstrip("0123456789")


def test_select_runs_only_chosen_rules(dirty_file, capsys):
    assert main(["--no-config", "--select", "COR001", str(dirty_file)]) == \
        EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "COR001" in out and "DET001" not in out


def test_disable_flag_turns_rule_off(dirty_file, capsys):
    code = main([
        "--no-config", "--disable", "DET001,COR001,COR002", str(dirty_file)
    ])
    assert code == EXIT_CLEAN
    assert "clean" in capsys.readouterr().out


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "COR001", "COR002",
                 "COR003", "API001", "API002", "FLOW001", "FLOW002",
                 "FLOW003", "FLOW004", "FLOW005", "DF001", "DF002",
                 "DF004", "DF005"):
        assert code in out


def test_select_overrides_pyproject_disable(tmp_path, capsys):
    """ruff semantics: an explicit --select wins over the pyproject
    disable list instead of silently running zero rules."""
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.repro-lint]\ndisable = ["DET001"]\n')
    code = main(["--config", str(pyproject), "--select", "DET001",
                 "--no-cache", str(bad)])
    assert code == EXIT_FINDINGS
    assert "DET001" in capsys.readouterr().out
    # Without --select the disable list still applies.
    assert main(["--config", str(pyproject), "--no-cache", str(bad)]) == \
        EXIT_CLEAN


def test_project_flag_runs_flow_rules(tmp_path, capsys):
    source = tmp_path / "src" / "repro" / "core"
    source.mkdir(parents=True)
    (source / "drop.py").write_text("def make(seed):\n    return 1\n")
    (tmp_path / "pyproject.toml").write_text("")
    code = main(["--no-config", "--no-cache", "--project",
                 str(tmp_path / "src")])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "FLOW001" in out and "drop.py" in out
    # Without --project the per-file pass alone reports nothing.
    assert main(["--no-config", "--no-cache", str(tmp_path / "src")]) == \
        EXIT_CLEAN


def test_selecting_flow_rule_implies_project_pass(tmp_path, capsys):
    source = tmp_path / "src" / "repro" / "core"
    source.mkdir(parents=True)
    (source / "drop.py").write_text("def make(seed):\n    return 1\n")
    (tmp_path / "pyproject.toml").write_text("")
    code = main(["--no-config", "--no-cache", "--select", "FLOW001",
                 str(tmp_path / "src")])
    assert code == EXIT_FINDINGS
    assert "FLOW001" in capsys.readouterr().out


def test_json_cache_stats_line_reports_warm_rerun(tmp_path, capsys):
    """Acceptance: a cached re-run hits for every unchanged file, and
    the ``--format json`` cache-stats line proves it."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("A = 1\n")
    (package / "b.py").write_text("B = 2\n")
    cache = tmp_path / "cache.json"
    argv = ["--no-config", "--format", "json", "--cache", str(cache),
            str(package)]
    assert main(argv) == EXIT_CLEAN
    cold = json.loads(capsys.readouterr().out)["cache"]
    assert cold == {"enabled": True, "files": 2, "hits": 0, "misses": 2}
    assert main(argv) == EXIT_CLEAN
    warm = json.loads(capsys.readouterr().out)["cache"]
    assert warm == {"enabled": True, "files": 2, "hits": 2, "misses": 0}


def test_no_cache_flag_reports_disabled_cache(tmp_path, capsys):
    (tmp_path / "a.py").write_text("A = 1\n")
    assert main(["--no-config", "--format", "json", "--no-cache",
                 str(tmp_path / "a.py")]) == EXIT_CLEAN
    document = json.loads(capsys.readouterr().out)
    assert document["cache"]["enabled"] is False


DF_DIRTY_SNIPPET = (
    "import random\n"
    "\n"
    "\n"
    "def f():\n"
    "    x = random.random()\n"
    "    x = 2\n"
    "    return x\n"
)


def test_dataflow_rules_run_by_default(tmp_path, capsys):
    path = tmp_path / "df.py"
    path.write_text(DF_DIRTY_SNIPPET)
    assert main(["--no-config", str(path)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "DF004" in out and "DET001" in out


def test_disable_df_family_skips_df_rules(tmp_path, capsys):
    path = tmp_path / "df.py"
    path.write_text(DF_DIRTY_SNIPPET)
    assert main(["--no-config", "--disable", "DF", str(path)]) == \
        EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "DF004" not in out and "DET001" in out


def test_select_df_family_prefix_expands(tmp_path, capsys):
    path = tmp_path / "df.py"
    path.write_text(DF_DIRTY_SNIPPET)
    assert main(["--no-config", "--select", "DF", str(path)]) == \
        EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "DF004" in out and "DET001" not in out


MARKED_SNIPPET = (
    "def f(x):\n"
    "    return x == 0.5  # repro: noqa[COR002] exact sentinel\n"
)


@pytest.mark.parametrize("flags", [
    ["--disable", "COR002"],
    ["--select", "DET002,FLOW004"],
])
def test_flow004_ignores_markers_for_rules_that_did_not_run(
        tmp_path, capsys, flags):
    path = tmp_path / "marked.py"
    path.write_text(MARKED_SNIPPET)
    assert main(["--no-config", "--project", *flags, str(path)]) == \
        EXIT_CLEAN
    assert "FLOW004" not in capsys.readouterr().out


def test_flow004_still_judges_rules_that_ran(tmp_path, capsys):
    path = tmp_path / "marked.py"
    path.write_text(MARKED_SNIPPET.replace("0.5", "1"))
    assert main(["--no-config", "--project", "--select", "COR002,FLOW004",
                 str(path)]) == EXIT_FINDINGS
    assert "FLOW004" in capsys.readouterr().out


def test_stats_flag_prints_phase_timings(dirty_file, capsys):
    assert main(["--no-config", "--stats", str(dirty_file)]) == \
        EXIT_FINDINGS
    err = capsys.readouterr().err
    assert "phase per-file" in err
    assert "dataflow" not in err
    assert "cache:" in err


def test_stats_reports_cache_hits_on_warm_rerun(tmp_path, capsys):
    path = tmp_path / "a.py"
    path.write_text("A = 1\n")
    cache = tmp_path / "cache.json"
    argv = ["--no-config", "--stats", "--cache", str(cache), str(path)]
    assert main(argv) == EXIT_CLEAN
    assert "1 misses" in capsys.readouterr().err
    assert main(argv) == EXIT_CLEAN
    assert "1 hits" in capsys.readouterr().err


def test_json_findings_are_sorted_and_round_trip(tmp_path, capsys):
    from repro.lint import Finding

    path = tmp_path / "multi.py"
    path.write_text(DIRTY_SNIPPET + "\n\n" + DF_DIRTY_SNIPPET.replace(
        "import random\n", "").replace("def f(", "def g("))
    assert main(["--no-config", "--format", "json", str(path)]) == \
        EXIT_FINDINGS
    findings = json.loads(capsys.readouterr().out)["findings"]
    keys = [(f["path"], f["line"], f["col"], f["rule"], f["message"])
            for f in findings]
    assert keys == sorted(keys)
    assert len({f["category"] for f in findings}) > 1
    # Round trip: dropping the derived category restores the Finding.
    for serialized in findings:
        fields = {k: v for k, v in serialized.items() if k != "category"}
        assert Finding(**fields).to_dict() == fields


def test_sarif_format_is_valid_sarif_210(dirty_file, capsys):
    assert main(["--no-config", "--format", "sarif", str(dirty_file)]) == \
        EXIT_FINDINGS
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert "sarif-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {"DET001", "COR001", "FLOW001", "DF001"} <= rule_ids
    assert run["results"], "findings must surface as SARIF results"
    first = run["results"][0]
    assert first["ruleId"] in rule_ids
    location = first["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1  # SARIF is 1-based


def test_directory_walk_respects_exclude(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "bad.py").write_text("import random\nx = random.random()\n")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[tool.repro-lint]\nexclude = ["*/pkg/bad.py"]\n'
    )
    code = main(["--config", str(pyproject), str(package)])
    assert code == EXIT_CLEAN
    assert "clean" in capsys.readouterr().out
