"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro table2 --scale 0.3 --runs 1
    python -m repro figure5
    python -m repro all --scale 0.2
    python -m repro campaign --sites be,cl,qa --backend both --scale 0.1

``campaign`` runs the sharded campaign engine (docs/campaign.md) with
its own argument set below.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    compute_figure4,
    compute_figure5,
    compute_figure15,
)
from repro.experiments.faultmatrix import compute_fault_matrix
from repro.experiments.runner import ResultCache
from repro.experiments.table1 import compute_table1
from repro.experiments.table2 import compute_table2
from repro.experiments.table3 import compute_table3
from repro.experiments.table4 import compute_table4
from repro.experiments.table5 import compute_table5
from repro.experiments.table6 import compute_table6
from repro.experiments.table7 import compute_table7
from repro.webgraph.sites import FIGURE4_SITES, PAPER_SITES


def _figure7(config: ExperimentConfig, cache: ResultCache):
    remaining = tuple(sorted(set(PAPER_SITES) - set(FIGURE4_SITES)))
    return compute_figure4(config, cache, sites=remaining)


EXPERIMENTS = {
    "table1": lambda config, cache: compute_table1(cache=cache),
    "table2": compute_table2,
    "table3": compute_table3,
    "table4": compute_table4,
    "table5": compute_table5,
    "table6": compute_table6,
    "table7": compute_table7,
    "figure4": lambda config, cache: compute_figure4(config, cache),
    "figure5": lambda config, cache: compute_figure5(config, cache),
    "figure7": _figure7,
    "figure15": lambda config, cache: compute_figure15("in", config, cache),
    "faultmatrix": compute_fault_matrix,
}


def _campaign_main(argv: list[str]) -> int:
    """The ``python -m repro campaign`` verb: run the sharded campaign
    engine end to end (docs/campaign.md).

    ``--backend both`` runs serial then multiprocessing and fails (exit
    1) unless the two reports are byte-identical — the digest-
    equivalence check CI's campaign-smoke job relies on.
    """
    from repro.campaign import (
        CampaignSpec,
        MultiprocessingBackend,
        SerialBackend,
        run_campaign,
    )
    from repro.webgraph.sites import PAPER_SITES

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a sharded multi-site crawl campaign.",
    )
    parser.add_argument(
        "--sites", default=None, metavar="A,B,C",
        help="comma-separated site names (default: all 18 paper sites)",
    )
    parser.add_argument("--crawler", default="SB-CLASSIFIER",
                        help="crawler to run on every site")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.5,
                        help="site scale factor (default 0.5)")
    parser.add_argument("--budget", type=float, default=None,
                        help="per-site request budget (default: none)")
    parser.add_argument("--shards", type=int, default=4,
                        help="number of per-domain shards (default 4)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker-pool size (default 4)")
    parser.add_argument(
        "--backend", choices=("serial", "multiprocessing", "both"),
        default="serial",
        help="'both' runs serial + multiprocessing and verifies the "
             "merged reports are byte-identical",
    )
    parser.add_argument("--politeness", type=float, default=1.0,
                        help="per-site politeness delay, seconds")
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record per-site JSONL event traces under DIR",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="write durable crawl-state checkpoints under DIR so an "
             "interrupted campaign (SIGINT/SIGTERM) can be resumed "
             "byte-identically (docs/checkpoint.md)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="N",
        help="crawl steps between periodic mid-site snapshots "
             "(default 25; 0 = snapshot only on shutdown)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from --checkpoint DIR",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the canonical campaign report as JSON",
    )
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")
    sites = (
        tuple(s for s in args.sites.split(",") if s)
        if args.sites is not None
        else tuple(sorted(PAPER_SITES))
    )
    shutdown = None
    if args.checkpoint is not None:
        from pathlib import Path

        from repro.checkpoint import ShutdownFlag, install_signal_handlers

        checkpoint_dir = Path(args.checkpoint)
        if not args.resume and checkpoint_dir.is_dir() and any(
            checkpoint_dir.iterdir()
        ):
            print(f"ERROR: checkpoint dir {checkpoint_dir} is not empty; "
                  "pass --resume to continue it or choose a fresh dir")
            return 2
        shutdown = ShutdownFlag()
        # Serial runs drain gracefully via the flag (the in-flight
        # crawl saves a final snapshot); the multiprocessing pool needs
        # the KeyboardInterrupt path to terminate its children.
        install_signal_handlers(
            shutdown, raise_keyboard_interrupt=(args.backend != "serial")
        )
    spec = CampaignSpec(
        sites=sites, crawler=args.crawler, seed=args.seed, scale=args.scale,
        budget=args.budget, n_shards=args.shards, n_workers=args.workers,
        politeness_delay=args.politeness, trace_dir=args.trace_dir,
    )
    backends = {
        "serial": [SerialBackend(shutdown=shutdown)],
        "multiprocessing": [MultiprocessingBackend(n_workers=args.workers)],
        "both": [SerialBackend(shutdown=shutdown),
                 MultiprocessingBackend(n_workers=args.workers)],
    }[args.backend]

    reports = []
    for backend in backends:
        started = time.time()  # repro: noqa[DET002] CLI progress display only
        report = run_campaign(
            spec, backend=backend,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        elapsed = time.time() - started  # repro: noqa[DET002] display only
        reports.append(report)
        print(f"[{backend.name} backend: {elapsed:.1f} s]")
        print(report.render())

    if args.backend == "both":
        serial_json, mp_json = reports[0].to_json(), reports[1].to_json()
        if serial_json != mp_json:
            print("FAIL: serial and multiprocessing reports differ")
            return 1
        print(f"OK: backends byte-identical (digest {reports[0].digest})")

    if args.json is not None:
        from pathlib import Path

        Path(args.json).write_text(reports[0].to_json() + "\n")
        print(f"[report written to {args.json}]")
    return 1 if reports[0].partial else 0


def _compare(config: ExperimentConfig, cache: ResultCache):
    """Statistical crawler comparison: SB-CLASSIFIER vs every baseline,
    paired over all sites, with bootstrap CIs and Wilcoxon tests."""
    from repro.analysis.metrics import requests_to_fraction
    from repro.analysis.stats import compare_paired
    from repro.experiments.runner import CRAWLER_ORDER

    sites = sorted(PAPER_SITES)
    metrics: dict[str, list[float]] = {}
    for crawler in CRAWLER_ORDER:
        values = []
        for site in sites:
            env = cache.env(site)
            result = cache.run(site, crawler, seed=config.seeds[0])
            values.append(
                requests_to_fraction(
                    result.trace, env.total_targets(), env.n_available()
                )
            )
        metrics[crawler] = values

    class _Report:
        def render(self) -> str:
            lines = ["Paired comparison (requests-% to 90% targets, 18 sites)"]
            for baseline in CRAWLER_ORDER:
                if baseline == "SB-CLASSIFIER":
                    continue
                comparison = compare_paired(
                    metrics["SB-CLASSIFIER"], metrics[baseline]
                )
                lines.append(
                    "  " + comparison.render("SB-CLASSIFIER", baseline)
                )
            return "\n".join(lines)

    return _Report()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        # The campaign verb owns its argument set; hand over before
        # argparse sees (and rejects) it.
        return _campaign_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate a table or figure of the paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "compare"],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="site scale factor (default 0.5; 1.0 = full laptop scale)",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="number of seeds to average stochastic crawlers over",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record every crawl's event stream as JSONL under DIR "
             "(replay with python -m repro.obs report; see "
             "docs/observability.md)",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        scale=args.scale, seeds=tuple(range(1, args.runs + 1)),
    )
    cache = ResultCache(scale=args.scale, trace_dir=args.trace_dir)
    if args.experiment == "compare":
        names = ["compare"]
        runners = {"compare": _compare}
    elif args.experiment == "all":
        names = sorted(EXPERIMENTS)
        runners = EXPERIMENTS
    else:
        names = [args.experiment]
        runners = EXPERIMENTS
    for name in names:
        started = time.time()  # repro: noqa[DET002] CLI progress display only
        result = runners[name](config, cache)
        print(result.render())
        elapsed = time.time() - started  # repro: noqa[DET002] display only
        print(f"[{name} computed in {elapsed:.1f} s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
