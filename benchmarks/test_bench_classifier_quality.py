"""Benchmark: URL-classification quality (Appendix B.5).

Prequential (test-then-train) accuracy of the online URL classifier per
fully-crawled site, plus the end-of-crawl confusion structure — the
paper's B.5 finding is that "classification errors are extremely
marginal on HTML and Target URLs".
"""

from benchmarks.conftest import save_rendered
from repro.webgraph.sites import FULLY_CRAWLED_SITES


def test_bench_classifier_quality(benchmark, bench_cache, bench_config,
                                  results_dir):
    def run():
        rows = []
        for site in FULLY_CRAWLED_SITES:
            result = bench_cache.run(
                site, "SB-CLASSIFIER", seed=bench_config.seeds[0]
            )
            rows.append(
                {
                    "site": site,
                    "prequential": result.classifier_prequential_accuracy,
                    "recent": result.classifier_recent_accuracy,
                    "mr": result.confusion.misclassification_rate(),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["URL classifier quality (Appendix B.5): prequential accuracy"]
    for row in rows:
        lines.append(
            f"  {row['site']}: prequential={100 * row['prequential']:5.1f}%  "
            f"recent={100 * row['recent']:5.1f}%  MR={row['mr']:.2f}%"
        )
    save_rendered(results_dir, "classifier_quality", "\n".join(lines))

    # Paper shape: errors are marginal once the model has warmed up.
    assert all(row["recent"] > 0.85 for row in rows), rows
    assert sum(row["prequential"] for row in rows) / len(rows) > 0.85
