"""Experiment configuration: the knobs every driver shares."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``scale`` multiplies the (already laptop-scale) site sizes; tests use
    small scales, the benchmark harness uses 1.0.  ``seeds`` are the
    runs seeded crawlers are averaged over (the paper averages 15 runs;
    3 keeps the benchmark suite tractable); single-run drivers use the
    first.
    """

    scale: float = 1.0
    seeds: tuple[int, ...] = field(default=(1, 2, 3))
    #: sites to evaluate (None = the paper's 18)
    sites: tuple[str, ...] | None = None
