"""Experiment harness: regenerates every table and figure of the paper.

Each ``tableN`` / ``figures`` module exposes a ``compute_*`` function
returning a structured result with a ``render()`` method that prints the
same rows/series the paper reports (paper values side by side where the
source provides them).  ``runner`` caches crawl runs so tables that
share runs (2, 3, 6, figures) do not recompute them.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CRAWLER_ORDER,
    ResultCache,
    default_cache,
)
from repro.experiments.table1 import compute_table1
from repro.experiments.table2 import compute_table2
from repro.experiments.table3 import compute_table3
from repro.experiments.table4 import compute_table4
from repro.experiments.table5 import compute_table5
from repro.experiments.table6 import compute_table6
from repro.experiments.table7 import compute_table7
from repro.experiments.faultmatrix import compute_fault_matrix
from repro.experiments.figures import (
    compute_figure4,
    compute_figure5,
    compute_figure15,
)

__all__ = [
    "ExperimentConfig",
    "CRAWLER_ORDER",
    "ResultCache",
    "default_cache",
    "compute_table1",
    "compute_table2",
    "compute_table3",
    "compute_table4",
    "compute_table5",
    "compute_table6",
    "compute_table7",
    "compute_fault_matrix",
    "compute_figure4",
    "compute_figure5",
    "compute_figure15",
]
