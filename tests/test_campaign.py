"""Tests for the multi-site campaign scheduler."""

import pytest

from repro.campaign import SiteWorkload, schedule_campaign


def _sites(counts):
    return [
        SiteWorkload(site=f"s{i}", n_requests=n) for i, n in enumerate(counts)
    ]


def test_empty_campaign():
    report = schedule_campaign([], n_workers=2)
    assert report.makespan_seconds == 0.0
    assert report.speedup == 1.0


def test_single_site_is_politeness_bound():
    report = schedule_campaign(_sites([100]), n_workers=8,
                               politeness_delay=1.0, service_time=0.01)
    # One site cannot be parallelised: ~99 politeness gaps + last request.
    assert report.makespan_seconds == pytest.approx(99.0 + 0.01, abs=0.5)
    assert report.speedup == pytest.approx(1.0, abs=0.1)


def test_many_sites_parallelise():
    report = schedule_campaign(_sites([100] * 8), n_workers=8,
                               politeness_delay=1.0, service_time=0.01)
    sequential = report.sequential_seconds
    assert sequential == pytest.approx(800.0, rel=0.05)
    # Eight independent sites with eight workers finish in ~one site-time.
    assert report.makespan_seconds < sequential / 6
    assert report.speedup > 6


def test_workers_cap_parallelism():
    two = schedule_campaign(_sites([50] * 8), n_workers=2,
                            politeness_delay=0.0, service_time=1.0)
    eight = schedule_campaign(_sites([50] * 8), n_workers=8,
                              politeness_delay=0.0, service_time=1.0)
    # Without politeness, makespan scales with 1/workers.
    assert two.makespan_seconds == pytest.approx(400 / 2, rel=0.05)
    assert eight.makespan_seconds == pytest.approx(400 / 8, rel=0.05)


def test_zero_request_sites_finish_instantly():
    report = schedule_campaign(_sites([0, 10]), n_workers=1)
    assert report.per_site_finish["s0"] == 0.0
    assert report.per_site_finish["s1"] > 0.0


def test_makespan_at_least_largest_site():
    report = schedule_campaign(_sites([200, 10, 10]), n_workers=16,
                               politeness_delay=1.0, service_time=0.0)
    assert report.makespan_seconds >= 199.0


def test_invalid_workers():
    with pytest.raises(ValueError):
        schedule_campaign(_sites([1]), n_workers=0)


def test_utilisation_bounded():
    report = schedule_campaign(_sites([30, 30, 30]), n_workers=3,
                               politeness_delay=0.5, service_time=0.1)
    assert 0.0 < report.utilisation <= 1.0


def test_from_trace(small_env):
    from repro.baselines import BFSCrawler

    result = BFSCrawler().crawl(small_env)
    workload = SiteWorkload.from_trace(result.trace)
    assert workload.n_requests == result.n_requests
    assert workload.total_bytes == result.trace.total_bytes
    report = schedule_campaign([workload], n_workers=2)
    assert report.makespan_seconds > 0
    assert "campaign" in report.render()


def test_bytes_affect_service_time():
    fast = schedule_campaign(
        [SiteWorkload("a", 10, total_bytes=0)],
        n_workers=1, politeness_delay=0.0, service_time=0.01,
    )
    slow = schedule_campaign(
        [SiteWorkload("a", 10, total_bytes=10_000_000_000)],
        n_workers=1, politeness_delay=0.0, service_time=0.01,
    )
    assert slow.makespan_seconds > fast.makespan_seconds


def test_campaign_lower_bounds_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=6),
        st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def check(counts, workers):
        service = 0.05
        delay = 1.0
        report = schedule_campaign(
            _sites(counts), n_workers=workers,
            politeness_delay=delay, service_time=service,
        )
        # Lower bound 1: the largest site's politeness chain.
        largest = max(counts)
        if largest > 0:
            assert report.makespan_seconds >= (largest - 1) * delay
        # Lower bound 2: total service time split over workers.
        total_service = sum(counts) * service
        assert report.makespan_seconds >= total_service / workers - 1e-9
        # Upper bound: fully sequential execution.
        assert report.makespan_seconds <= report.sequential_seconds + service

    check()


def test_report_is_identical_under_permuted_workload_order():
    """The determinism property the backend-equivalence gate relies on:
    ``schedule_campaign`` is a pure function of the workload *set* —
    makespan, per-site finishes and even the float-summed sequential
    baseline must be bit-identical however the input list is ordered."""
    from repro.utils.rng import derive_rng

    workloads = [
        SiteWorkload(site=f"site-{i:02d}", n_requests=5 + (i * 7) % 23,
                     total_bytes=(i * 131071) % 900_000)
        for i in range(12)
    ]
    baseline = schedule_campaign(workloads, n_workers=3,
                                 politeness_delay=0.7, service_time=0.03)
    rng = derive_rng(1234, "campaign", "permutation")
    for _ in range(5):
        shuffled = list(workloads)
        rng.shuffle(shuffled)
        report = schedule_campaign(shuffled, n_workers=3,
                                   politeness_delay=0.7, service_time=0.03)
        assert report.makespan_seconds == baseline.makespan_seconds
        assert report.sequential_seconds == baseline.sequential_seconds
        assert report.per_site_finish == baseline.per_site_finish
        assert report.worker_busy_seconds == baseline.worker_busy_seconds


def test_workload_rejects_negative_counts():
    """Regression: a corrupt or hand-built trace summary must fail fast,
    not feed negative request counts into the scheduler."""
    with pytest.raises(ValueError, match="n_requests"):
        SiteWorkload(site="bad", n_requests=-1)
    with pytest.raises(ValueError, match="total_bytes"):
        SiteWorkload(site="bad", n_requests=1, total_bytes=-5)


def test_from_trace_accepts_any_tracelike():
    """``from_trace`` is typed against the structural TraceLike protocol
    — a plain stand-in with the three properties works."""
    from repro.campaign import TraceLike

    class Recorded:
        site = "stub"
        n_requests = 7
        total_bytes = 1234

    workload = SiteWorkload.from_trace(Recorded())
    assert isinstance(Recorded(), TraceLike)
    assert (workload.site, workload.n_requests, workload.total_bytes) == (
        "stub", 7, 1234
    )
