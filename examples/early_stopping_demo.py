#!/usr/bin/env python3
"""Early-stopping demo (paper Sec. 4.8): stop crawling when the
target-discovery rate plateaus, and measure requests saved vs targets
lost.

Run:  python examples/early_stopping_demo.py
"""

from repro import CrawlEnvironment, SBConfig, SBCrawler, load_paper_site, sb_classifier
from repro.core.early_stopping import scaled_early_stopping
from repro.experiments.report import ascii_curve
from repro.analysis.metrics import targets_vs_requests_curve


def main(site: str = "in", scale: float = 0.5) -> None:
    env = CrawlEnvironment(load_paper_site(site, scale=scale))
    print(f"site {site}: {env.n_available()} pages, "
          f"{env.total_targets()} targets\n")

    base = sb_classifier(SBConfig(seed=1)).crawl(env)

    es_params = scaled_early_stopping(env.n_available())
    stopper = SBCrawler(SBConfig(seed=1, early_stopping=True, **es_params))
    stopped = stopper.crawl(env)

    saved = 100.0 * (base.n_requests - stopped.n_requests) / base.n_requests
    lost = 100.0 * (base.n_targets - stopped.n_targets) / max(1, base.n_targets)
    print(f"full crawl     : {base.n_requests:6d} requests, "
          f"{base.n_targets} targets")
    print(f"early stopping : {stopped.n_requests:6d} requests, "
          f"{stopped.n_targets} targets")
    print(f"  -> saved {saved:.1f}% of requests, lost {lost:.1f}% of targets")
    print(f"  (EMA slope monitor: window={es_params['es_window']}, "
          f"threshold={es_params['es_threshold']}, "
          f"patience={es_params['es_patience']})\n")

    xs, ys = targets_vs_requests_curve(stopped.trace)
    print(ascii_curve(xs.tolist(), ys.tolist(), height=10,
                      title="targets vs requests, early-stopped crawl"))
    if stopped.stopped_early:
        print(f"crawl cut at request {stopped.trace.stopped_early_at}")


if __name__ == "__main__":
    main()
