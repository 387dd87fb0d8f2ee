"""Deterministic crawl reports and curves from an event stream.

The FetchEvent stream carries exactly the information of a
:class:`~repro.analysis.trace.CrawlTrace` (same emission site), so any
replay of a recorded event trace reconstructs the run's request-level
aggregates *exactly*: ``n_requests``, ``n_targets`` and the per-step
harvest-rate curve all match the originating ``CrawlResult``.  The
curves reuse the existing ``repro.analysis`` machinery
(:func:`~repro.analysis.metrics.targets_vs_requests_curve`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.metrics import targets_vs_requests_curve
from repro.analysis.trace import CrawlRecord, CrawlTrace
from repro.obs.events import (
    ActionCreated,
    ClassifierBatchTrained,
    CrawlEvent,
    EarlyStopTriggered,
    FetchEvent,
    TargetFound,
)
from repro.obs.metrics import MetricsObserver, MetricsRegistry


def trace_from_events(
    events: Iterable[CrawlEvent], crawler: str = "", site: str = ""
) -> CrawlTrace:
    """Rebuild the request trace from the FetchEvents of a stream.

    The kernel stops right after the step whose ``early_stop`` event
    fires, so the fetches seen by then are ``stopped_early_at``.
    """
    trace = CrawlTrace(crawler=crawler, site=site)
    for event in events:
        if isinstance(event, FetchEvent):
            trace.append(
                CrawlRecord(
                    method=event.method,
                    url=event.url,
                    status=event.status,
                    size=event.size,
                    is_target=event.is_target,
                )
            )
        elif isinstance(event, EarlyStopTriggered):
            trace.stopped_early_at = len(trace.records)
    return trace


def harvest_rate_curve(trace: CrawlTrace) -> tuple[list[int], list[float]]:
    """Per-step harvest rate: cumulative targets / requests issued.

    The per-step twin of the paper's Figure 4 left panels and of the
    harvest-rate curves used by the RL-crawler literature (PAPERS.md).
    """
    requests, cumulative = targets_vs_requests_curve(trace)
    steps = [int(x) for x in requests]
    rates = [float(c) / s for s, c in zip(steps, cumulative)]
    return steps, rates


def regret_curve(
    trace: CrawlTrace, total_targets: int | None = None
) -> tuple[list[int], list[int]]:
    """Per-step regret against the OMNISCIENT upper bound.

    OMNISCIENT retrieves one target per request until the site is
    exhausted, so the ideal cumulative count at step t is
    ``min(t, total_targets)`` (just ``t`` when the total is unknown);
    regret is ideal minus achieved.
    """
    requests, cumulative = targets_vs_requests_curve(trace)
    steps = [int(x) for x in requests]
    regrets = []
    for step, found in zip(steps, cumulative):
        ideal = step if total_targets is None else min(step, total_targets)
        regrets.append(int(ideal) - int(found))
    return steps, regrets


def replay_metrics(events: Iterable[CrawlEvent]) -> MetricsRegistry:
    """Fold a recorded event stream into a fresh metrics registry."""
    observer = MetricsObserver()
    for event in events:
        observer.on_event(event)
    return observer.registry


def _checkpoints(n: int, k: int = 10) -> list[int]:
    """Up to ``k`` evenly spaced 1-based indices ending at ``n``."""
    if n <= 0:
        return []
    points = sorted({max(1, round(i * n / k)) for i in range(1, k + 1)})
    return points


def crawl_report(
    events: Sequence[CrawlEvent],
    crawler: str = "",
    site: str = "",
) -> str:
    """Render a deterministic text report of one recorded crawl.

    Sections: run totals, the harvest-rate curve at ten checkpoints,
    and the full metric catalogue (the same numbers a live
    :class:`~repro.obs.metrics.MetricsObserver` would have collected).
    """
    trace = trace_from_events(events, crawler=crawler, site=site)
    registry = replay_metrics(events)
    n_actions = 0
    n_batches = 0
    early_stop: EarlyStopTriggered | None = None
    n_targets_found = 0
    last_accuracy = 0.0
    for event in events:
        if isinstance(event, ActionCreated):
            n_actions = max(n_actions, event.n_actions)
        elif isinstance(event, ClassifierBatchTrained):
            n_batches = event.n_batches
            last_accuracy = event.prequential_accuracy
        elif isinstance(event, TargetFound):
            n_targets_found = max(n_targets_found, event.n_targets)
        elif isinstance(event, EarlyStopTriggered):
            early_stop = event

    lines: list[str] = []
    title = "crawl report"
    label = " ".join(part for part in (crawler, site) if part)
    if label:
        title += f" — {label}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")
    lines.append(f"n_requests        {trace.n_requests}")
    lines.append(f"n_targets         {trace.n_targets}")
    lines.append(f"targets_distinct  {n_targets_found}")
    lines.append(f"bytes_total       {trace.total_bytes}")
    lines.append(f"target_bytes      {trace.target_bytes}")
    rate = trace.n_targets / trace.n_requests if trace.n_requests else 0.0
    lines.append(f"harvest_rate      {rate:.4f}")
    lines.append(f"actions_created   {n_actions}")
    lines.append(f"classifier_batches {n_batches}")
    lines.append(f"classifier_prequential_accuracy {last_accuracy:.4f}")
    if early_stop is not None:
        lines.append(
            f"early_stop        step={early_stop.step} ema={early_stop.ema:.4f}"
        )
    else:
        lines.append("early_stop        -")
    lines.append("")
    lines.append("harvest-rate curve (requests : targets : rate)")
    steps, rates = harvest_rate_curve(trace)
    _, cumulative = targets_vs_requests_curve(trace)
    for index in _checkpoints(len(steps)):
        i = index - 1
        lines.append(
            f"  {steps[i]:>8d} : {int(cumulative[i]):>6d} : {rates[i]:.4f}"
        )
    if not steps:
        lines.append("  (no requests recorded)")
    lines.append("")
    lines.append("metrics")
    lines.append(registry.render())
    return "\n".join(lines) + "\n"
