"""Shared benchmark fixtures.

All table/figure benchmarks share one ResultCache at ``BENCH_SCALE`` so
crawl runs are computed once per session (the paper's local-replication
methodology).  Rendered tables are written to ``bench_results/`` so the
regenerated paper artefacts survive the run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ResultCache

#: Scale of the synthetic sites used by the benchmark suite.  1.0 is the
#: full laptop-scale size of the 18 site profiles (≈ 1 k – 6 k pages).
#: The ``REPRO_BENCH_SCALE`` environment variable overrides it so CI's
#: bench-smoke job can run the suite at a fraction of the size (the
#: numbers are then not comparable across scales — only across runs at
#: the same scale).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

@pytest.fixture(scope="session")
def bench_cache() -> ResultCache:
    return ResultCache(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(scale=BENCH_SCALE, seeds=(1,))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    # Anchored on this file, not the CWD, so the suite writes to the
    # repo's bench_results/ however it is invoked.
    directory = Path(__file__).resolve().parent.parent / "bench_results"
    directory.mkdir(exist_ok=True)
    return directory


def save_rendered(results_dir: Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")
