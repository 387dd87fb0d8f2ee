"""Table 1: main characteristics of the 18 websites.

The paper's Table 1 is the census of the evaluation corpus.  Our
reproduction generates each synthetic replica, measures the same
statistics from the graph (by exhaustive traversal, like the paper's
full crawls) and prints them next to the paper's published values so
the scale substitution is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ResultCache, default_cache
from repro.webgraph.sites import PAPER_STATS


@dataclass
class Table1Row:
    site: str
    start_url: str
    multilingual: bool
    fully_crawled: bool
    n_available: int
    n_targets: int
    target_density_pct: float
    html_to_target_pct: float
    size_mean_mb: float
    size_std_mb: float
    depth_mean: float
    depth_std: float
    # paper reference (counts in thousands)
    paper_available_k: float
    paper_targets_k: float
    paper_html_to_target_pct: float
    paper_depth_mean: float


@dataclass
class Table1Result:
    rows: list[Table1Row]

    def render(self) -> str:
        lines = [
            "Table 1: website characteristics (measured on synthetic replicas; "
            "paper values in parentheses)",
            f"{'site':4} {'Mlg':3} {'F.C.':4} {'#Avail':>8} {'#Target':>8} "
            f"{'Dens%':>6} {'HTML to T.%':>16} {'Size MB':>14} {'Depth':>18}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.site:4} {'y' if r.multilingual else 'n':3} "
                f"{'y' if r.fully_crawled else 'n':4} "
                f"{r.n_available:8d} {r.n_targets:8d} "
                f"{r.target_density_pct:6.1f} "
                f"{r.html_to_target_pct:6.2f} ({r.paper_html_to_target_pct:5.2f}) "
                f"{r.size_mean_mb:5.2f}±{r.size_std_mb:<7.2f} "
                f"{r.depth_mean:5.1f}±{r.depth_std:<4.1f} "
                f"(paper depth {r.paper_depth_mean:.1f})"
            )
        return "\n".join(lines)


def compute_table1(cache: ResultCache | None = None,
                   sites: tuple[str, ...] | None = None) -> Table1Result:
    cache = cache or default_cache()
    rows: list[Table1Row] = []
    for site in sites or sorted(PAPER_STATS):
        paper = PAPER_STATS[site]
        stats = cache.facts(site).statistics
        rows.append(
            Table1Row(
                site=site,
                start_url=paper.start_url,
                multilingual=paper.multilingual,
                fully_crawled=paper.fully_crawled,
                n_available=stats.n_available,
                n_targets=stats.n_targets,
                target_density_pct=100.0 * stats.target_density,
                html_to_target_pct=stats.html_to_target_pct,
                size_mean_mb=stats.target_size_mean / 1e6,
                size_std_mb=stats.target_size_std / 1e6,
                depth_mean=stats.target_depth_mean,
                depth_std=stats.target_depth_std,
                paper_available_k=paper.available_k,
                paper_targets_k=paper.targets_k,
                paper_html_to_target_pct=paper.html_to_target_pct,
                paper_depth_mean=paper.depth_mean,
            )
        )
    return Table1Result(rows=rows)
