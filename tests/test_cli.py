"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_all_experiments_registered():
    expected = {
        "table1", "table2", "table3", "table4", "table5", "table6",
        "table7", "figure4", "figure5", "figure7", "figure15",
        "faultmatrix",
    }
    assert set(EXPERIMENTS) == expected


def test_cli_runs_table1(capsys):
    assert main(["table1", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "computed in" in out


def test_cli_runs_figure5(capsys):
    assert main(["figure5", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_precheck_builds_the_documented_commands():
    """The pre-PR check bundles lint + doc gates (docs/static_analysis.md)."""
    from repro.precheck import build_commands, repo_root

    commands = build_commands(python="PY")
    assert [argv for _, argv in commands] == [
        ["PY", "-m", "repro.lint", "--project", "src"],
        ["PY", "-m", "pytest", "-q", "tests/test_docs.py",
         "tests/test_obs_events.py"],
    ]
    root = repo_root()
    assert (root / "src").is_dir() and (root / "tests").is_dir()


def test_cli_compare(capsys):
    assert main(["compare", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Paired comparison" in out
    assert "SB-CLASSIFIER - BFS" in out


def test_cli_campaign_verb(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    assert main([
        "campaign", "--sites", "cl,qa", "--crawler", "BFS",
        "--scale", "0.05", "--shards", "2", "--workers", "2",
        "--json", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign: 2 sites" in out
    assert "digest" in out
    import json

    payload = json.loads(out_file.read_text())
    assert payload["config"]["crawler"] == "BFS"
    assert len(payload["sites"]) == 2


def test_cli_campaign_rejects_bad_backend():
    with pytest.raises(SystemExit):
        main(["campaign", "--backend", "threads"])
