"""Sanity checks for .github/workflows/ci.yml.

CI configuration cannot be executed locally, but most workflow rot is
structural: a renamed job, a dropped Python version, a command that
drifted from the documented tier-1 invocation.  Parsing the YAML and
asserting the load-bearing parts catches that class of breakage in the
ordinary test run.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def _load():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


def test_workflow_parses_and_declares_all_jobs():
    doc = _load()
    assert set(doc["jobs"]) == {
        "tests", "lint", "campaign-smoke",
        "resume-equivalence", "precheck", "bench-smoke",
    }


def test_workflow_cancels_superseded_runs():
    """A new push must cancel the in-flight run for the same ref instead
    of queueing behind it."""
    doc = _load()
    concurrency = doc["concurrency"]
    assert "${{ github.ref }}" in concurrency["group"]
    assert concurrency["cancel-in-progress"] is True


def test_every_job_has_a_timeout():
    """A hung job must never hold the concurrency group for the runner
    default of six hours — every job carries an explicit timeout."""
    doc = _load()
    for name, job in doc["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert isinstance(minutes, int), f"job {name} has no timeout-minutes"
        assert 0 < minutes <= 60, f"job {name} timeout out of range"


def test_actions_are_pinned_to_full_version_tags():
    """Every `uses:` reference must pin a full MAJOR.MINOR.PATCH tag —
    floating major tags silently change the executed action."""
    import re

    doc = _load()
    for name, job in doc["jobs"].items():
        for step in job["steps"]:
            uses = step.get("uses")
            if uses is None:
                continue
            assert re.search(r"@v\d+\.\d+\.\d+$", uses), (
                f"job {name}: unpinned action reference {uses!r}"
            )


def test_tests_job_runs_tier1_on_both_pythons():
    doc = _load()
    tests = doc["jobs"]["tests"]
    assert tests["strategy"]["matrix"]["python-version"] == ["3.11", "3.12"]
    commands = [step.get("run", "") for step in tests["steps"]]
    assert any("python -m pytest -x -q" in c for c in commands)
    # tier-1 needs the src layout on the path
    assert doc["env"]["PYTHONPATH"] == "src"


def test_tests_job_runs_the_crawl_benchmark_tests():
    """perfbench/ sits outside pytest's testpaths, so its own tests
    (output checks, witness, host clock) run only if a job names it."""
    doc = _load()
    commands = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    assert any("python -m pytest perfbench -q" in c for c in commands)


def test_setup_python_uses_pip_cache():
    doc = _load()
    for job in doc["jobs"].values():
        for step in job["steps"]:
            if "setup-python" in str(step.get("uses", "")):
                assert step["with"]["cache"] == "pip"


def test_lint_and_precheck_run_the_documented_gates():
    doc = _load()
    lint_cmds = [s.get("run", "") for s in doc["jobs"]["lint"]["steps"]]
    assert any("python -m repro.lint --project --format json src" in c
               for c in lint_cmds)
    pre_cmds = [s.get("run", "") for s in doc["jobs"]["precheck"]["steps"]]
    assert any("python -m repro.precheck --ci" in c for c in pre_cmds)


def test_lint_job_archives_report_and_summarises_findings():
    """The lint job must (a) write the JSON report, (b) upload it as a
    workflow artifact even on failure, (c) append the findings count to
    the step summary, and (d) still propagate the lint exit status."""
    doc = _load()
    steps = doc["jobs"]["lint"]["steps"]
    commands = "\n".join(s.get("run", "") for s in steps)
    assert "lint-report.json" in commands
    assert "GITHUB_STEP_SUMMARY" in commands
    assert 'exit "$status"' in commands
    uploads = [s for s in steps
               if "upload-artifact" in str(s.get("uses", ""))]
    assert len(uploads) == 1
    assert uploads[0]["if"] == "always()"
    assert "lint-report.json" in uploads[0]["with"]["path"]


def test_lint_job_renders_and_uploads_sarif():
    """The same findings go out as SARIF 2.1.0 for code-scanning
    consumers: rendered even when the lint step failed, never changing
    the job verdict, and included in the uploaded artifact."""
    doc = _load()
    steps = doc["jobs"]["lint"]["steps"]
    sarif_steps = [s for s in steps
                   if "--format sarif" in s.get("run", "")]
    assert len(sarif_steps) == 1
    step = sarif_steps[0]
    assert step["if"] == "always()"          # render even after findings
    assert "|| true" in step["run"]          # but never flip the verdict
    assert "lint-report.sarif" in step["run"]
    uploads = [s for s in steps
               if "upload-artifact" in str(s.get("uses", ""))]
    assert "lint-report.sarif" in uploads[0]["with"]["path"]


def test_campaign_smoke_job_enforces_backend_equivalence():
    """The campaign-smoke job must run `repro campaign --backend both`
    (which exits non-zero unless the serial and multiprocessing reports
    are byte-identical), check cross-invocation byte-stability with cmp,
    and archive the report."""
    doc = _load()
    steps = doc["jobs"]["campaign-smoke"]["steps"]
    commands = "\n".join(s.get("run", "") for s in steps)
    assert "python -m repro campaign" in commands
    assert "--backend both" in commands
    assert "cmp campaign-a.json campaign-b.json" in commands
    uploads = [s for s in steps
               if "upload-artifact" in str(s.get("uses", ""))]
    assert len(uploads) == 1
    assert uploads[0]["if"] == "always()"


def test_resume_equivalence_job_enforces_kill_and_resume_gate():
    """The resume-equivalence job must (a) record an uninterrupted
    reference through BOTH backends, (b) run a checkpointed campaign and
    SIGTERM it once a checkpoint exists, (c) resume with --resume and
    compare byte-for-byte against the reference, and (d) upload the
    checkpoint dir only on failure (docs/checkpoint.md)."""
    doc = _load()
    steps = doc["jobs"]["resume-equivalence"]["steps"]
    commands = "\n".join(s.get("run", "") for s in steps)
    assert "--backend both" in commands
    assert "reference.json" in commands
    assert "--checkpoint" in commands
    assert "--checkpoint-every" in commands
    assert "kill -TERM" in commands
    assert "--resume" in commands
    assert "resumed.json" in commands
    # the signal waits for the first per-site checkpoint, and a campaign
    # that finished before it (exit 0) fails the step: resuming a
    # completed campaign would make the gate vacuous
    kill_step = next(s for s in steps if "kill -TERM" in s.get("run", ""))
    assert "sleep 4" not in kill_step["run"]
    assert "site-*/ckpt-*/manifest.json" in kill_step["run"]
    assert 'wait "$CAMPAIGN_PID" || status=$?' in kill_step["run"]
    assert '[ "$status" -eq 0 ]' in kill_step["run"]
    assert "exit 1" in kill_step["run"]
    uploads = [s for s in steps
               if "upload-artifact" in str(s.get("uses", ""))]
    assert len(uploads) == 1
    assert uploads[0]["if"] == "failure()"
    assert "ckpt" in uploads[0]["with"]["path"]


def test_bench_smoke_enforces_gate_at_full_scale():
    """The schedule/label-gated job is where the throughput gate has
    teeth: its `pytest benchmarks` step collects
    benchmarks/test_bench_perf_gate.py, which runs perfbench at full
    site scale whatever REPRO_BENCH_SCALE says."""
    doc = _load()
    commands = [s.get("run", "") for s in doc["jobs"]["bench-smoke"]["steps"]]
    runs = [c for c in commands if "python -m pytest benchmarks" in c]
    assert len(runs) == 1
    # --benchmark-only would skip every test without the benchmark
    # fixture, the gate included
    assert "--benchmark-only" not in runs[0]
    repo = Path(__file__).resolve().parent.parent
    assert (repo / "benchmarks" / "test_bench_perf_gate.py").exists()


def test_bench_baseline_document_is_committed():
    """The gate needs a committed baseline: bench_results/
    perfbench_baseline.json must exist, parse, and carry a median over
    at least five runs of each gated workload."""
    import json
    import statistics

    baseline = (Path(__file__).resolve().parent.parent
                / "bench_results" / "perfbench_baseline.json")
    assert baseline.exists(), "committed bench baseline missing"
    doc = json.loads(baseline.read_text())
    assert doc["metric"] == "pages_per_s"
    assert {"seed", "seconds", "python"} <= set(doc)
    assert set(doc["workloads"]) == {"sb-warm", "bfs-cold"}
    for entry in doc["workloads"].values():
        assert len(entry["runs"]) >= 5
        assert entry["median"] == statistics.median(entry["runs"]) > 0


def test_bench_smoke_is_gated_and_scaled_down():
    doc = _load()
    bench = doc["jobs"]["bench-smoke"]
    assert "schedule" in bench["if"]
    assert "bench" in bench["if"]
    scale = float(bench["env"]["REPRO_BENCH_SCALE"])
    assert 0 < scale < 1.0
    commands = [s.get("run", "") for s in bench["steps"]]
    assert any("--benchmark-json" in c for c in commands)
    uploads = [s for s in bench["steps"] if "upload-artifact" in str(s.get("uses", ""))]
    assert uploads


def test_workflow_commands_reference_real_modules():
    # the modules the workflow invokes must exist and import cleanly
    import repro.lint      # noqa: F401
    import repro.precheck  # noqa: F401
