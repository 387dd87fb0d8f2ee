"""Figures 4/7, 5 and 15: curve data and text rendering.

* Figure 4/7: per crawler and site, the targets-vs-requests curve and
  the target-volume-vs-non-target-volume curve (both panels).
* Figure 5: mean rewards of the top-10 tag-path groups per site.
* Figure 15: target-discovery curve with the early-stopping cut line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import targets_vs_requests_curve, volume_curve
from repro.core.crawler import SBConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ascii_curve
from repro.experiments.runner import CRAWLER_ORDER, ResultCache, default_cache
from repro.webgraph.sites import FIGURE4_SITES


def _downsample(xs: np.ndarray, ys: np.ndarray, n_points: int = 120
                ) -> tuple[list[float], list[float]]:
    if len(xs) <= n_points:
        return xs.tolist(), ys.tolist()
    idx = np.linspace(0, len(xs) - 1, n_points).astype(int)
    return xs[idx].tolist(), ys[idx].tolist()


@dataclass
class CrawlerCurves:
    crawler: str
    requests: list[float]
    targets: list[float]
    non_target_bytes: list[float]
    target_bytes: list[float]


@dataclass
class Figure4Site:
    site: str
    curves: list[CrawlerCurves] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"Figure 4 — site {self.site}"]
        for curve in self.curves:
            final_targets = curve.targets[-1] if curve.targets else 0
            lines.append(
                ascii_curve(
                    curve.requests,
                    curve.targets,
                    title=f"[{curve.crawler}] targets vs requests "
                          f"(final {final_targets:.0f})",
                    height=8,
                )
            )
        return "\n".join(lines)

    def to_svg(self) -> tuple[str, str]:
        """Both Figure 4 panels as SVG text (left: targets vs requests,
        right: target volume vs non-target volume)."""
        from repro.analysis.svg import LineChart

        left = LineChart(
            title=f"{self.site}: crawled targets vs requests",
            x_label="requests (GET+HEAD)",
            y_label="targets retrieved",
        )
        right = LineChart(
            title=f"{self.site}: target vs non-target volume",
            x_label="non-target volume (bytes)",
            y_label="target volume (bytes)",
        )
        for curve in self.curves:
            left.add_series(curve.crawler, curve.requests, curve.targets)
            right.add_series(
                curve.crawler, curve.non_target_bytes, curve.target_bytes
            )
        return left.to_svg(), right.to_svg()


@dataclass
class Figure4Result:
    sites: list[Figure4Site]

    def render(self) -> str:
        return "\n\n".join(site.render() for site in self.sites)

    def final_targets(self, site: str, crawler: str) -> float:
        for entry in self.sites:
            if entry.site == site:
                for curve in entry.curves:
                    if curve.crawler == crawler:
                        return curve.targets[-1] if curve.targets else 0.0
        raise KeyError((site, crawler))


def compute_figure4(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
    sites: tuple[str, ...] = FIGURE4_SITES,
    crawlers: tuple[str, ...] = CRAWLER_ORDER,
) -> Figure4Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    specs = {
        (site, crawler): cache.spec(site, crawler, config.seeds[0])
        for site in sites
        for crawler in crawlers
    }
    outcomes = cache.run_all(specs.values())
    out: list[Figure4Site] = []
    for site in sites:
        entry = Figure4Site(site=site)
        for crawler in crawlers:
            trace = outcomes[specs[site, crawler]].trace
            requests, targets = targets_vs_requests_curve(trace)
            non_target, target = volume_curve(trace)
            req_x, tgt_y = _downsample(requests, targets)
            ntv_x, tv_y = _downsample(non_target, target)
            entry.curves.append(
                CrawlerCurves(
                    crawler=crawler,
                    requests=req_x,
                    targets=tgt_y,
                    non_target_bytes=ntv_x,
                    target_bytes=tv_y,
                )
            )
        out.append(entry)
    return Figure4Result(sites=out)


@dataclass
class Figure5Result:
    sites: list[str]
    #: per site, the top-10 mean rewards (descending)
    top_rewards: dict[str, list[float]]

    def render(self) -> str:
        lines = ["Figure 5: mean rewards of the top-10 tag-path groups"]
        for site in self.sites:
            values = " ".join(f"{v:8.2f}" for v in self.top_rewards[site])
            lines.append(f"  {site:3}: {values}")
        best = [self.top_rewards[s][0] for s in self.sites if self.top_rewards[s]]
        if best:
            lines.append(
                f"  cross-site best-group average: {sum(best) / len(best):.1f} "
                f"(paper: 258 on its million-page sites)"
            )
        return "\n".join(lines)

    def to_svg(self) -> str:
        """Figure 5 as a log-scale SVG: one line of top-10 rewards per site."""
        from repro.analysis.svg import LineChart

        chart = LineChart(
            title="Mean rewards of the top-10 tag-path groups",
            x_label="group rank",
            y_label="mean reward (log)",
            log_y=True,
        )
        ranks = list(range(1, 11))
        for site in self.sites:
            rewards = [max(r, 1e-3) for r in self.top_rewards[site][:10]]
            chart.add_series(site, ranks[: len(rewards)], rewards)
        return chart.to_svg()


def compute_figure5(
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
    sites: tuple[str, ...] = FIGURE4_SITES,
) -> Figure5Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    outcomes = cache.run_all(
        cache.spec(site, "SB-CLASSIFIER", config.seeds[0]) for site in sites
    ).values()
    top = {o.site: list(o.top10_rewards) for o in outcomes}
    return Figure5Result(sites=list(sites), top_rewards=top)


@dataclass
class Figure15Result:
    site: str
    requests: list[float]
    targets: list[float]
    stop_at: int | None

    def render(self) -> str:
        title = f"Figure 15 — early stopping on {self.site}"
        plot = ascii_curve(self.requests, self.targets, title=title)
        stop = (
            f"stop fired at request {self.stop_at}"
            if self.stop_at is not None
            else "stop never fired"
        )
        return plot + "\n" + stop

    def to_svg(self) -> str:
        from repro.analysis.svg import LineChart

        chart = LineChart(
            title=f"Early stopping on {self.site}",
            x_label="requests",
            y_label="targets retrieved",
            marker_x=float(self.stop_at) if self.stop_at is not None else None,
        )
        chart.add_series("targets", self.requests, self.targets)
        return chart.to_svg()


def compute_figure15(
    site: str = "in",
    config: ExperimentConfig | None = None,
    cache: ResultCache | None = None,
) -> Figure15Result:
    config = config or ExperimentConfig()
    cache = cache or default_cache(config.scale)
    result = cache.run(
        site, "SB-CLASSIFIER", seed=config.seeds[0],
        sb_config=SBConfig(early_stopping=True),
    )
    requests, targets = targets_vs_requests_curve(result.trace)
    req_x, tgt_y = _downsample(requests, targets)
    return Figure15Result(
        site=site,
        requests=req_x,
        targets=tgt_y,
        stop_at=result.trace.stopped_early_at,
    )
