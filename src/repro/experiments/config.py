"""Experiment configuration: paper defaults and scale adaptations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: The paper's default hyper-parameters (Sec. 4.5).
PAPER_DEFAULTS = {
    "n": 2,
    "theta": 0.75,
    "alpha": 2.0 * math.sqrt(2.0),
    "m": 12,
    "w": 15,
    "b": 10,
}


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


def scaled_early_stopping(n_available: int) -> dict[str, float | int]:
    """Early-stopping parameters scaled to site size.

    The paper's ν = 1000 / κ = 15 assume million-page budgets; on sites
    of a few thousand pages the slope window scales with the site so the
    κ·ν warm-up does not exceed the whole crawl (the paper itself notes
    that small sites finish before κ·ν iterations, Sec. 4.8).
    """
    window = max(30, n_available // 40)
    return {
        "es_window": window,
        "es_threshold": 0.2,
        # The paper's γ = 0.05 suits ν = 1000 windows on million-page
        # crawls; with windows scaled ~25× smaller the EMA must also
        # forget ~25× faster to represent the same crawl fraction.
        "es_decay": 0.3,
        "es_patience": 6,
    }
