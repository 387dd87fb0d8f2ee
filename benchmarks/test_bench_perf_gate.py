"""Throughput regression gate on the crawl benchmark (``perfbench/``).

Runs ``perfbench/run.py`` on its two throughput workloads, ``sb-warm``
(crawler cost) and ``bfs-cold`` (simulator floor).  A run fails the gate
when its output checks fail, or when its end-to-end ``pages_per_s``
falls below :data:`FLOOR` times the median committed in
``bench_results/perfbench_baseline.json``.  A faster run always passes.
perfbench times crawls in host-speed-compensated reference seconds
(``perfbench/README.md``), so one baseline serves hosts of different
speed better than wall-clock time would.

Per-layer times are not gated: they are wall time, not reference
seconds, and too noisy on a shared runner for a band.

Re-measure the baseline after a deliberate speed change with::

    python benchmarks/test_bench_perf_gate.py

It runs each workload :data:`RUNS` times, alternating workloads, and
rewrites the baseline file with every run and their medians.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench_results" / "perfbench_baseline.json"
WORKLOADS = ("sb-warm", "bfs-cold")
SEED = 1
SECONDS = 15
#: fraction of the baseline median a run must reach
FLOOR = 0.80
#: runs per workload behind a re-measured baseline
RUNS = 5


def run_perfbench(workload: str) -> dict:
    """One untraced perfbench run: its final JSON result line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is True, completed.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pages_per_s_holds_the_baseline(workload):
    baseline = json.loads(BASELINE.read_text())
    assert (baseline["seed"], baseline["seconds"]) == (SEED, SECONDS)
    expected = baseline["workloads"][workload]["median"]
    measured = run_perfbench(workload)["metrics"]["pages_per_s"]["value"]
    floor = FLOOR * expected
    assert measured >= floor, (
        f"{workload}: {measured:.0f} requests/s is below the gate floor "
        f"{floor:.0f} ({FLOOR:.0%} of the baseline median {expected:.0f})"
    )


def measure_baseline() -> dict:
    runs: dict[str, list[float]] = {workload: [] for workload in WORKLOADS}
    for _ in range(RUNS):
        for workload in WORKLOADS:
            result = run_perfbench(workload)
            runs[workload].append(
                round(result["metrics"]["pages_per_s"]["value"], 1))
    return {
        "metric": "pages_per_s",
        "unit": "requests/s",
        "seed": SEED,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "date": date.today().isoformat(),
        "workloads": {
            workload: {"median": statistics.median(values), "runs": values}
            for workload, values in runs.items()
        },
    }


if __name__ == "__main__":
    BASELINE.parent.mkdir(exist_ok=True)
    BASELINE.write_text(json.dumps(measure_baseline(), indent=2) + "\n")
    print(BASELINE.read_text(), end="")
