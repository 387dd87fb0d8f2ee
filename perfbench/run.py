"""Crawl benchmark: one workload, one seed, one closed-loop crawler.

Usage, from the repository root::

    python3 perfbench/run.py --workload sb-warm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see perfbench/README.md).  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check
fails and 2 when the sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space for checkpoints and span dumps, inside the checkout
OUT_DIR = ROOT / ".perfbench-out"
#: per-graph set-ups per run, and the least time they take together;
#: setup_s is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: requests per timing window (see _denoised)
WINDOW = 100

END_TO_END = (
    ("pages_per_s", "requests/s"),
    ("gap_ms_p50", "ms"),
    ("gap_ms_p99", "ms"),
    ("harvest_rate", "targets/request"),
    ("ok_share", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _pages_per_s(outcomes) -> float:
    return sum(o.n_requests for o in outcomes) / sum(o.seconds for o in outcomes)


def _check(reps) -> list[str]:
    """Per-crawl failures, plus the check that every repetition of a
    crawl has the same witness (sorted targets and request count)."""
    failures = [f"{o.site}: {f}" for outcomes in reps for o in outcomes
                for f in o.failures]
    witnesses: dict[int, str] = {}
    for outcomes in reps:
        for index, outcome in enumerate(outcomes):
            if witnesses.setdefault(index, outcome.witness) != outcome.witness:
                failures.append(f"{outcome.site}: crawl {index} differs between repetitions")
    return failures


def _windows(times: list[float]) -> list[float]:
    """Durations of consecutive windows of WINDOW requests; they add up
    to the crawl's wall time."""
    edges = times[::WINDOW]
    if (len(times) - 1) % WINDOW:
        edges.append(times[-1])
    return [b - a for a, b in zip(edges, edges[1:])]


def _denoised(reps) -> tuple[list[float], list[float]]:
    """Crawl seconds and request gaps, each the median over repetitions.

    Every repetition of a crawl does the same work (the witness check
    proves it), so the k-th window, or the k-th gap, of one crawl is the
    same work in every repetition.  The times are already in reference
    seconds (see hostclock.py); the median of each window and of each
    gap over the repetitions drops what the probes did not catch, such
    as an interrupt in one repetition.  The program's own stalls recur
    in every repetition and stay.
    """
    seconds, gaps = [], []
    for index in range(len(reps[0])):
        runs = [outcomes[index] for outcomes in reps]
        seconds.append(sum(map(statistics.median, zip(*(_windows(o.times) for o in runs)))))
        gaps.extend(map(statistics.median, zip(*(o.gaps_ms for o in runs))))
    return seconds, sorted(gaps)


def _end_to_end(reps, setup_times, clock) -> tuple[dict[str, float], dict[str, object]]:
    first = reps[0]
    seconds, gaps = _denoised(reps)
    attempted = sum(o.n_requests for outcomes in reps for o in outcomes)
    lost = sum(o.abandoned + (o.n_requests if o.failures else 0)
               for outcomes in reps for o in outcomes)
    metrics = {
        "pages_per_s": sum(o.n_requests for o in first) / sum(seconds),
        "gap_ms_p50": _nearest_rank(gaps, 0.50),
        "gap_ms_p99": _nearest_rank(gaps, 0.99),
        "harvest_rate": statistics.median(o.n_targets / o.n_requests for o in first),
        "ok_share": 1 - lost / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "repetitions": len(reps),
        "crawls per repetition": len(first),
        "requests per repetition": sum(o.n_requests for o in first),
        "gap samples": len(gaps),
        "pages_per_s of each repetition": " ".join(
            f"{_pages_per_s(o):.1f}" for o in reps),
        "fail_share": lost / attempted,
        "set-ups": len(setup_times),
        "host speed (share of the reference host, median of "
        f"{len(clock.probe_s)} probes)": f"{clock.speed():.3f}",
    }
    return metrics, notes


def _setup(args, work_dir: Path, clock):
    """Set the workload up, again and again until there are SETUP_REPEATS
    per-graph set-up times taking SETUP_SECONDS together (once when
    tracing), and keep the last set-up."""
    from workloads import make_workload

    times, workload = [], None
    while not times or (not args.trace and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS)):
        del workload
        gc.collect()
        workload = make_workload(args.workload, args.seed, work_dir, clock)
        times += workload.setup()
    return workload, times


def _traced(workload, args) -> tuple[dict[str, float], dict[str, object], list]:
    """Alternate untraced and traced repetitions for ``args.seconds``;
    per-layer figures are medians over the traced ones."""
    import tracing

    tracer = tracing.Tracer(clock=workload.clock.raw)
    plain, traced, per_rep = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        plain.append(workload.run_once(contextlib.nullcontext))
        gc.collect()
        tracer.reset()
        traced.append(workload.run_once(tracer.installed))
        per_rep.append(tracer.layer_metrics(traced[-1]))
    spans = OUT_DIR / f"spans-{args.workload}.tsv"
    tracer.write_spans(spans)
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced_pps = statistics.median(_pages_per_s(o) for o in plain)
    traced_pps = statistics.median(_pages_per_s(o) for o in traced)
    metrics["tracing.untraced_pages_per_s"] = untraced_pps
    metrics["tracing.traced_pages_per_s"] = traced_pps
    metrics["tracing.overhead"] = untraced_pps / traced_pps
    notes = {"repetitions": f"{len(plain)} untraced, {len(traced)} traced",
             "spans of the last repetition": str(spans.relative_to(ROOT))}
    return metrics, notes, plain + traced


def _run(args, work_dir: Path) -> tuple[dict, list[str], dict, int]:
    import tracing
    from hostclock import HostClock
    from workloads import WORKLOADS

    clock = HostClock()
    workload, setup_times = _setup(args, work_dir, clock)
    # one crawl to warm the process up; checked, not timed
    warmup = [[workload.crawl(0, contextlib.nullcontext)]]
    if args.trace:
        metrics, notes, reps = _traced(workload, args)
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        metrics = {name: metrics[name] for name in units}
    else:
        reps = []
        deadline = time.perf_counter() + args.seconds
        while (len(reps) < WORKLOADS[args.workload].min_repeats
               or time.perf_counter() < deadline):
            gc.collect()
            reps.append(workload.run_once(contextlib.nullcontext))
        metrics, notes = _end_to_end(reps, setup_times, clock)
        units = dict(END_TO_END)
    all_reps = warmup + reps
    failures = _check(all_reps)
    attempted = sum(o.n_requests for outcomes in all_reps for o in outcomes)
    failed = sum(o.n_requests for outcomes in all_reps for o in outcomes if o.failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, failures, notes, 0 if not failures else 1


def _run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, completed.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sb-warm, bfs-cold, sb-durable, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        result, failures, notes, code = _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    spec = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {spec.crawler} on {', '.join(spec.sites)} "
          f"(seed {args.seed}, trace {args.trace})")
    print(f"  why: {spec.why}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
