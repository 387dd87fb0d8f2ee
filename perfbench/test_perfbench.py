"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from array import array

import pytest

import hostclock
import run
import tracing
import workloads
from workloads import build_graph, fault_plan, make_inputs

URLS = [f"https://www.bea.gov/page-{i}.html" for i in range(400)]


def graph_digest(graph) -> str:
    """SHA-256 over every page's URL, kind, status, MIME, size and links."""
    digest = hashlib.sha256()
    for page in sorted(graph.pages(), key=lambda p: p.url):
        digest.update(
            f"{page.url}|{page.kind.value}|{page.status}|{page.mime_type}|"
            f"{page.size}|{page.redirect_to}\n".encode()
        )
        for link in page.links:
            digest.update(f" {link.url}|{link.tag_path}\n".encode())
    return digest.hexdigest()


def fault_schedule(fault_seed: int) -> list[tuple[str, int]]:
    """The faults a fresh plan assigns to URLS requested in order."""
    plan = fault_plan(fault_seed)
    faults = [plan.next_fault(url, "GET") for url in URLS]
    return [(f.kind, f.status) if f else ("", 0) for f in faults]


def _fingerprint(workload: str, seed: int) -> tuple:
    """Everything the program receives for a run: graph digests, fault
    schedules and crawler seeds."""
    inputs = make_inputs(workload, seed)
    digests = tuple(
        graph_digest(build_graph(site, site_seed))
        for site, site_seed in zip(inputs.sites, inputs.site_seeds)
    )
    faults = tuple(tuple(fault_schedule(s)) for s in inputs.fault_seeds)
    return digests, faults, inputs.crawler_seeds, inputs.retry_seeds


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_builds_identical_inputs(workload):
    assert _fingerprint(workload, 11) == _fingerprint(workload, 11)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_every_input(workload):
    first, second = _fingerprint(workload, 11), _fingerprint(workload, 12)
    for part_a, part_b in zip(first, second):
        assert part_a != part_b
    # the injected faults really fire at the configured rate
    kinds = [kind for schedule in first[1] for kind, _ in schedule]
    assert 0.05 < sum(1 for kind in kinds if kind) / len(kinds) < 0.3


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.per_layer_metrics()
    )
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_reports_every_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BUDGET", 400)
    assert run.main(["--workload", "sb-durable", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_attributes_checkpoint_and_sink_only_when_used(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BUDGET", 400)
    layers = {}
    for workload in ("sb-warm", "sb-durable"):
        assert run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", "1"]) == 0
        metrics = _last_json(capsys)["metrics"]
        assert list(metrics) == [name for name, _, _ in tracing.per_layer_metrics()]
        layers[workload] = {n: m["value"] for n, m in metrics.items()}
    for name in ("checkpoint.saves", "obs.sinks.events"):
        assert layers["sb-warm"][name] == 0 < layers["sb-durable"][name]
    assert layers["sb-warm"]["html.parse.cache_hit_ratio"] == 1.0


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BUDGET", 400)
    # a server log that misses requests breaks the ledger == log check
    monkeypatch.setattr(workloads.RequestLog, "head",
                        lambda self, url, *a, **k: self.inner.head(url, *a, **k))
    assert run.main(["--workload", "sb-warm", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 1
    result = _last_json(capsys)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tracer_restores_entry_points_and_splits_self_time():
    originals = {}
    for layer in tracing.LAYERS:
        for entry in layer.entries:
            owner, attribute = tracing._resolve(entry)
            originals[entry] = vars(owner)[attribute]
    tracer = tracing.Tracer()
    with tracer.installed():
        owner, attribute = tracing._resolve("repro.http.server:render_page")
        assert vars(owner)[attribute] is not originals["repro.http.server:render_page"]
    for entry, original in originals.items():
        owner, attribute = tracing._resolve(entry)
        assert vars(owner)[attribute] is original

    tracer = tracing.Tracer()
    inner = tracer._span(lambda: sum(range(20_000)), "hashed_bow")
    outer = tracer._span(lambda: [inner() for _ in range(3)], "OnlineUrlClassifier.classify")
    outer()
    names, duration, self_s = tracer._self_times()
    assert [tracer.span_names[n] for n in names] == ["OnlineUrlClassifier.classify"] + [
        "hashed_bow"] * 3
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert self_s[0] == pytest.approx(duration[0] - duration[1:].sum())
    assert self_s.sum() == pytest.approx(duration[0])


def test_host_clock_counts_slow_stretches_at_reference_speed():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_PROBE_S
    clock.probed_at = array("d", [0.0, 1.0, 2.0, 3.0])
    clock.probe_s = array("d", [ref, ref, 2 * ref, 2 * ref])
    # a stretch between probes at half speed counts half, the one
    # between a full- and a half-speed probe three quarters
    assert clock.scaled([0.0, 1.0, 2.0, 3.0]) == pytest.approx([0.0, 1.0, 1.75, 2.25])
    # one probe slowed by an interrupt does not count
    clock.probe_s = array("d", [ref, ref, 9 * ref, ref])
    assert clock.scaled([3.0]) == pytest.approx([3.0])


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sb-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
