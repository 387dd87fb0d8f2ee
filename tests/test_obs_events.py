"""The event-stream contract, end to end: counts match the ledger, the
JSONL trace round-trips, replay reconstructs the originating
``CrawlResult`` exactly, and observers never perturb the crawl."""

import pytest

from repro import (
    CrawlEnvironment,
    SBConfig,
    generate_site,
    load_paper_site,
    sb_classifier,
)
from repro.baselines.simple import BFSCrawler
from repro.core.early_stopping import EarlyStoppingMonitor
from repro.obs import (
    EVENT_TYPES,
    JsonlSink,
    MemorySink,
    MetricsObserver,
    MetricsRegistry,
    MultiObserver,
    NullObserver,
    Observer,
    crawl_report,
    read_events,
    trace_from_events,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.events import EarlyStopTriggered
from repro.obs.report import harvest_rate_curve, regret_curve
from tests.conftest import make_profile

SITE, SCALE, SEED, BUDGET = "ju", 0.1, 1, 200


@pytest.fixture(scope="module")
def instrumented():
    """One instrumented crawl + its uninstrumented twin (same env/seed)."""
    env = CrawlEnvironment(load_paper_site(SITE, scale=SCALE))
    sink = MemorySink()
    registry = MetricsRegistry()
    observer = MultiObserver([sink, MetricsObserver(registry)])
    result = sb_classifier(SBConfig(seed=SEED, observer=observer)).crawl(
        env, budget=BUDGET)
    bare = sb_classifier(SBConfig(seed=SEED)).crawl(env, budget=BUDGET)
    return env, sink, registry, result, bare


def test_sinks_satisfy_observer_protocol():
    assert isinstance(MemorySink(), Observer)
    assert isinstance(MetricsObserver(), Observer)
    assert not NullObserver().enabled


def test_event_counts_match_ledger(instrumented):
    _, sink, _, result, _ = instrumented
    counts = sink.counts()
    assert counts["fetch"] == result.n_requests
    assert counts["target_found"] == result.n_targets
    assert counts["action_created"] == result.info["n_actions"]
    assert counts.get("classifier_batch_trained", 0) >= 1
    assert counts["action_selected"] >= 1
    assert set(counts) <= set(EVENT_TYPES)


def test_metrics_fold_matches_result(instrumented):
    _, _, registry, result, _ = instrumented
    assert registry.get("requests_total").value == result.n_requests
    assert registry.get("targets_total").value == result.trace.n_targets
    assert registry.get("bytes_total").value == result.trace.total_bytes
    assert registry.get("steps_total").value > 0


def test_trace_reconstruction_is_exact(instrumented):
    _, sink, _, result, _ = instrumented
    trace = trace_from_events(sink.events, crawler=result.crawler,
                              site=result.site)
    assert trace.n_requests == result.n_requests
    assert trace.n_targets == result.trace.n_targets
    assert trace.total_bytes == result.trace.total_bytes
    assert len(trace.records) == len(result.trace.records)
    for rebuilt, original in zip(trace.records, result.trace.records):
        assert (rebuilt.method, rebuilt.url, rebuilt.status, rebuilt.size,
                rebuilt.is_target) == (original.method, original.url,
                                       original.status, original.size,
                                       original.is_target)


def test_observer_never_perturbs_the_crawl(instrumented):
    """A crawl with observers attached is byte-identical to one without."""
    _, _, _, result, bare = instrumented
    assert result.n_requests == bare.n_requests
    assert result.targets == bare.targets
    assert [(r.method, r.url, r.status) for r in result.trace.records] == \
           [(r.method, r.url, r.status) for r in bare.trace.records]


def test_jsonl_round_trip(instrumented, tmp_path):
    _, sink, _, result, _ = instrumented
    path = tmp_path / "run.jsonl"
    with JsonlSink(path, meta={"crawler": result.crawler, "site": result.site,
                               "seed": SEED}) as jsonl:
        for event in sink.events:
            jsonl.on_event(event)
    assert jsonl.n_events == len(sink.events)
    meta, events = read_events(path)
    assert meta == {"crawler": result.crawler, "site": result.site,
                    "seed": SEED}
    assert events == sink.events


def test_read_events_fails_loudly(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_events(empty)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"format":99,"stream":"repro.obs"}\n')
    with pytest.raises(ValueError, match="format"):
        read_events(wrong)

    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text('{"format":1,"stream":"repro.obs"}\n'
                       '{"e":"no_such_event"}\n')
    with pytest.raises(ValueError, match="unknown event kind"):
        read_events(unknown)


def test_crawl_report_reconstructs_result(instrumented):
    _, sink, _, result, _ = instrumented
    report = crawl_report(sink.events, crawler=result.crawler,
                          site=result.site)
    assert f"crawl report — {result.crawler} {result.site}" in report
    assert f"n_requests        {result.n_requests}" in report
    assert f"n_targets         {result.trace.n_targets}" in report
    rate = result.trace.n_targets / result.n_requests
    assert f"harvest_rate      {rate:.4f}" in report
    assert f"actions_created   {result.info['n_actions']}" in report
    assert "metrics" in report
    # deterministic: same events render the same text
    assert report == crawl_report(sink.events, crawler=result.crawler,
                                  site=result.site)


def test_cli_report_matches_result(instrumented, tmp_path, capsys):
    _, sink, _, result, _ = instrumented
    path = tmp_path / "run.jsonl"
    with JsonlSink(path, meta={"crawler": result.crawler,
                               "site": result.site}) as jsonl:
        for event in sink.events:
            jsonl.on_event(event)
    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"n_requests        {result.n_requests}" in out
    assert f"n_targets         {result.trace.n_targets}" in out


def test_cli_curves_matches_result(instrumented, tmp_path, capsys):
    _, sink, _, result, _ = instrumented
    path = tmp_path / "run.jsonl"
    with JsonlSink(path) as jsonl:
        for event in sink.events:
            jsonl.on_event(event)
    assert obs_main(["curves", str(path), "--every", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,targets,harvest_rate,regret"
    step, targets, rate, regret = lines[-1].split(",")
    assert int(step) == result.n_requests
    assert int(targets) == result.trace.n_targets
    assert float(rate) == pytest.approx(
        result.trace.n_targets / result.n_requests, abs=1e-6)
    assert int(regret) == result.n_requests - result.trace.n_targets


def test_cli_rejects_missing_file(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_curves_cap_regret_at_total_targets(instrumented):
    _, sink, _, result, _ = instrumented
    trace = trace_from_events(sink.events)
    steps, rates = harvest_rate_curve(trace)
    assert steps[-1] == result.n_requests
    assert rates[-1] == pytest.approx(
        result.trace.n_targets / result.n_requests)
    _, capped = regret_curve(trace, total_targets=result.trace.n_targets)
    _, uncapped = regret_curve(trace)
    assert capped[-1] <= uncapped[-1]
    assert uncapped[-1] == result.n_requests - result.trace.n_targets
    # with the ideal capped at the targets actually found, final regret is 0
    assert capped[-1] == 0


def test_environment_observer_instruments_baselines():
    """Env-level observers see every client, even observability-unaware
    baseline crawlers."""
    sink = MemorySink()
    env = CrawlEnvironment(load_paper_site(SITE, scale=SCALE), observer=sink)
    result = BFSCrawler().crawl(env, budget=100)
    assert sink.counts()["fetch"] == result.n_requests
    trace = trace_from_events(sink.events)
    assert trace.n_requests == result.n_requests
    assert trace.n_targets == result.trace.n_targets


def test_early_stopping_monitor_emits_event():
    sink = MemorySink()
    monitor = EarlyStoppingMonitor(window=1, threshold=0.5, decay=1.0,
                                   patience=2, observer=sink)
    assert not monitor.observe(1.0)   # slope 1.0 -> ramped up
    assert not monitor.observe(1.0)   # slope 0.0 -> 1 low window
    assert monitor.observe(1.0)       # 2 low windows -> trigger
    events = sink.of_kind("early_stop")
    assert len(events) == 1
    event = events[0]
    assert isinstance(event, EarlyStopTriggered)
    assert event.step == 3
    assert event.window == 1
    assert event.patience == 2


def test_early_stopped_crawl_round_trips_through_jsonl(tmp_path):
    """A JSONL event trace rebuilds the request trace of an early-stopped
    crawl exactly, ``stopped_early_at`` included."""
    env = CrawlEnvironment(generate_site(
        make_profile(name="deepsite", n_pages=400, target_depth_mean=12.0)))
    path = tmp_path / "run.jsonl"
    with JsonlSink(path) as sink:
        result = sb_classifier(SBConfig(
            seed=2, early_stopping=True, es_window=10, es_threshold=1.0,
            es_decay=0.3, es_patience=2, observer=sink)).crawl(env)
    assert result.stopped_early
    assert result.trace.stopped_early_at is not None

    _, events = read_events(path)
    trace = trace_from_events(events)
    assert trace.records == result.trace.records
    assert trace.stopped_early_at == result.trace.stopped_early_at
