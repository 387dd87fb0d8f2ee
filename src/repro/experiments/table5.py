"""Table 5 (+ Tables 8–16): URL-classifier model/feature study.

Evaluates the eight classifier variants (LR, SVM, NB, PA × URL_ONLY,
URL_CONT) with SB-CLASSIFIER on the fully-crawled sites: the
requests-to-90 % metric per site, the inter-site misclassification rate
("MR"), and the averaged confusion matrices of the appendix tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import requests_to_fraction
from repro.core.crawler import SBConfig
import repro.experiments.paperdata as paperdata
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import fmt_cell, render_table
from repro.experiments.runner import ResultCache, default_cache
from repro.ml.metrics import ConfusionMatrix
from repro.webgraph.sites import FULLY_CRAWLED_SITES

MODELS: tuple[str, ...] = ("LR", "SVM", "NB", "PA")
FEATURE_SETS: tuple[str, ...] = ("URL_ONLY", "URL_CONT")


@dataclass
class Table5Result:
    sites: list[str]
    #: variant -> per-site requests-% metric
    measured: dict[str, list[float]]
    #: variant -> inter-site misclassification rate
    mr: dict[str, float]
    #: variant -> averaged confusion matrix (Tables 8–15)
    confusions: dict[str, ConfusionMatrix]

    def render(self) -> str:
        rows: list[tuple[str, list[float | None]]] = []
        for variant, values in self.measured.items():
            rows.append((variant, list(values) + [self.mr[variant]]))
            paper = paperdata.TABLE5.get(variant)
            if paper is not None:
                per_site, paper_mr = paper
                paper_row = [
                    per_site[paperdata.FULLY_CRAWLED_ORDER.index(site)]
                    if site in paperdata.FULLY_CRAWLED_ORDER
                    else None
                    for site in self.sites
                ]
                rows.append((f"  (paper)", paper_row + [paper_mr]))
        table = render_table(
            "Table 5: URL-classifier variants (requests-% per site, MR)",
            self.sites + ["MR"],
            rows,
            label_width=16,
        )
        matrices = [table, "", "Confusion matrices (Tables 8-15 style, %):"]
        for variant, matrix in self.confusions.items():
            matrices.append(f"-- {variant}")
            for true_label in matrix.labels:
                cells = " ".join(
                    fmt_cell(matrix.percentage(true_label, p), 7, 2)
                    for p in matrix.labels
                )
                matrices.append(f"   true {true_label:8}: {cells}")
        return "\n".join(matrices)


def compute_table5(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
    sites: tuple[str, ...] | None = None,
) -> Table5Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    site_list = list(sites or config.sites or FULLY_CRAWLED_SITES)
    variants = {
        f"{feature_set}-{model}": SBConfig(
            classifier_model=model, feature_set=feature_set
        )
        for feature_set in FEATURE_SETS
        for model in MODELS
    }
    specs = {
        (variant, site): cache.spec(
            site, "SB-CLASSIFIER", config.seeds[0], sb_config=sb_config
        )
        for variant, sb_config in variants.items()
        for site in site_list
    }
    outcomes = cache.run_all(specs.values())

    measured: dict[str, list[float]] = {}
    mr: dict[str, float] = {}
    confusions: dict[str, ConfusionMatrix] = {}
    for variant in variants:
        per_site: list[float] = []
        merged = ConfusionMatrix()
        for site in site_list:
            facts = cache.facts(site)
            outcome = outcomes[specs[variant, site]]
            per_site.append(
                requests_to_fraction(
                    outcome.trace, facts.total_targets, facts.n_available
                )
            )
            merged = merged.merged(outcome.confusion)
        measured[variant] = per_site
        mr[variant] = merged.misclassification_rate()
        confusions[variant] = merged
    return Table5Result(
        sites=site_list, measured=measured, mr=mr, confusions=confusions
    )
