"""The sharded campaign execution engine, end to end.

Covers the three contracts of docs/campaign.md: per-domain sharding
(every site in exactly one shard, LPT-balanced, permutation-invariant),
graceful shutdown (interrupt → partial report, no orphaned processes),
and the determinism guarantee — the serial and multiprocessing backends
produce byte-identical campaign reports, checked both on a fixed config
and on a seeded sweep over every registered crawler.
"""

import json
import multiprocessing
import pickle

import pytest

from repro.campaign import (
    CampaignSpec,
    CrawlSpec,
    MultiprocessingBackend,
    Partition,
    SerialBackend,
    ShardTask,
    assign_virtual_times,
    dispatch_order,
    merge_outcomes,
    partition_sites,
    run_campaign,
    run_shard,
    shard_tasks,
    site_seed,
    site_weights,
    trace_name,
)
from repro.baselines import CRAWLER_NAMES
from repro.obs import MemorySink
from repro.utils.rng import derive_rng, derive_seed

#: Small paper sites — every engine test stays sub-second per crawl.
SMALL_SITES = ("be", "cl", "cn", "qa")
TINY = dict(crawler="BFS", seed=3, scale=0.05)


# -- partitions ------------------------------------------------------------


def test_partition_covers_each_site_exactly_once():
    partitions = partition_sites(list(SMALL_SITES), 3)
    assigned = [s for p in partitions for s in p.sites]
    assert sorted(assigned) == sorted(SMALL_SITES)
    assert [p.shard_id for p in partitions] == list(range(len(partitions)))


def test_partition_is_permutation_invariant():
    weights = {"a": 5.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 1.0}
    sites = list(weights)
    baseline = partition_sites(sites, 2, weights=weights)
    rng = derive_rng(99, "test", "partition-permutation")
    for _ in range(5):
        shuffled = list(sites)
        rng.shuffle(shuffled)
        assert partition_sites(shuffled, 2, weights=weights) == baseline


def test_partition_lpt_balances_weighted_load():
    weights = {"big": 10.0, "m1": 4.0, "m2": 3.0, "s1": 2.0, "s2": 1.0}
    partitions = partition_sites(list(weights), 2, weights=weights)
    loads = sorted(
        sum(weights[s] for s in p.sites) for p in partitions
    )
    # LPT puts the 10-weight site alone: 10 vs 4+3+2+1.
    assert loads == [10.0, 10.0]


def test_partition_drops_empty_shards_and_renumbers():
    partitions = partition_sites(["x", "y"], 5)
    assert len(partitions) == 2
    assert [p.shard_id for p in partitions] == [0, 1]
    assert all(p.n_sites == 1 for p in partitions)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_sites([], 2)
    with pytest.raises(ValueError):
        partition_sites(["a", "a"], 2)
    with pytest.raises(ValueError):
        partition_sites(["a"], 0)
    with pytest.raises(ValueError):
        partition_sites(["a"], 1, weights={"a": -1.0})


# -- virtual clock ---------------------------------------------------------


def test_virtual_times_pack_onto_slots():
    times = assign_virtual_times([0, 1, 2], {0: 10.0, 1: 20.0, 2: 5.0}, 2)
    # Two slots: shard 0 and 1 start at 0; shard 2 follows shard 0.
    assert times[0] == (0.0, 10.0)
    assert times[1] == (0.0, 20.0)
    assert times[2] == (10.0, 15.0)


def test_virtual_times_depend_on_dispatch_order_only():
    durations = {0: 3.0, 1: 7.0, 2: 2.0}
    a = assign_virtual_times([2, 0, 1], durations, 2)
    b = assign_virtual_times([2, 0, 1], dict(durations), 2)
    assert a == b
    assert a != assign_virtual_times([0, 1, 2], durations, 2)
    with pytest.raises(ValueError):
        assign_virtual_times([0], {0: 1.0}, 0)


# -- spec / tasks ----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(sites=())
    with pytest.raises(ValueError):
        CampaignSpec(sites=("be",), n_workers=0)
    with pytest.raises(ValueError):
        CampaignSpec(sites=("be",), politeness_delay=-1.0)


def test_shard_task_pickles():
    task = ShardTask(
        shard_id=1, specs=(CrawlSpec("be", **TINY), CrawlSpec("cl", **TINY))
    )
    assert pickle.loads(pickle.dumps(task)) == task


def test_site_seed_ignores_shard_assignment():
    # The per-site seed is a function of (campaign seed, site) only, so
    # re-sharding can never perturb a crawl.
    assert site_seed(3, "be") == derive_seed(3, "campaign", "be")
    assert site_seed(3, "be") != site_seed(3, "cl")


# -- serial engine ---------------------------------------------------------


@pytest.fixture(scope="module")
def serial_report():
    spec = CampaignSpec(sites=SMALL_SITES, n_shards=3, n_workers=2, **TINY)
    sink = MemorySink()
    report = run_campaign(spec, observer=sink)
    return spec, report, sink


def test_report_rows_are_canonical(serial_report):
    _, report, _ = serial_report
    sites = [row["site"] for row in report.site_rows]
    assert sites == sorted(SMALL_SITES)
    shard_ids = [row["shard_id"] for row in report.shard_rows]
    assert shard_ids == sorted(shard_ids)
    assert report.n_requests == sum(r["n_requests"] for r in report.site_rows)
    assert report.n_targets == sum(r["n_targets"] for r in report.site_rows)
    assert report.makespan_seconds > 0
    assert not report.partial


def test_report_payload_has_no_backend_identity(serial_report):
    _, report, _ = serial_report
    payload = report.to_json()
    assert "serial" not in payload
    assert "multiprocessing" not in payload
    parsed = json.loads(payload)
    assert parsed["schema_version"] == 1
    assert parsed["config"]["n_workers"] == 2


def test_rerun_is_byte_identical(serial_report):
    spec, report, _ = serial_report
    again = run_campaign(spec)
    assert again.to_json() == report.to_json()
    assert again.digest == report.digest


def test_campaign_event_stream(serial_report):
    _, report, sink = serial_report
    kinds = [e.kind for e in sink.events]
    n = report.n_shards
    assert kinds.count("shard_started") == n
    assert kinds.count("shard_finished") == n
    assert kinds[-1] == "campaign_merged"
    merged = sink.events[-1]
    assert merged.digest == report.digest
    assert merged.n_requests == report.n_requests
    # Events replay in dispatch order — the seeded interleaving.
    started_ids = [e.shard_id for e in sink.events
                   if e.kind == "shard_started"]
    assert started_ids == report.dispatch_order


def test_render_is_deterministic(serial_report):
    _, report, _ = serial_report
    text = report.render()
    assert "campaign:" in text and "digest" in text
    assert report.render() == text


# -- worker-count sweep by re-merging --------------------------------------

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def crawled_shards():
    """One serial BFS campaign, crawled once for every re-merge below."""
    spec = CampaignSpec(sites=("cl", "qa"), crawler="BFS", seed=1,
                        scale=0.05, n_shards=max(WORKER_COUNTS))
    partitions = partition_sites(list(spec.sites), spec.n_shards,
                                 weights=site_weights(spec.sites))
    order = dispatch_order(spec, partitions)
    outcomes = SerialBackend().run_tasks(shard_tasks(spec, partitions, order))
    return spec, partitions, order, outcomes


def _remerge(crawled_shards, n_workers):
    spec, partitions, order, outcomes = crawled_shards
    config = {"sites": sorted(spec.sites), "crawler": spec.crawler,
              "seed": spec.seed, "scale": spec.scale, "budget": None,
              "n_shards": len(partitions), "n_workers": n_workers,
              "politeness_delay": spec.politeness_delay}
    return merge_outcomes(outcomes, partitions, order, config=config,
                          n_workers=n_workers,
                          politeness_delay=spec.politeness_delay)


def test_more_workers_never_lengthen_the_makespan(crawled_shards):
    reports = [_remerge(crawled_shards, w) for w in WORKER_COUNTS]
    makespans = [r.makespan_seconds for r in reports]
    assert makespans == sorted(makespans, reverse=True)
    speedups = [r.speedup for r in reports]
    assert speedups[0] == 1.0
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))


def test_remerge_at_the_same_worker_count_is_deterministic(crawled_shards):
    for w in WORKER_COUNTS:
        assert (_remerge(crawled_shards, w).digest
                == _remerge(crawled_shards, w).digest)


# -- backend equivalence ---------------------------------------------------


def _no_orphans():
    return multiprocessing.active_children() == []


def test_multiprocessing_matches_serial_byte_for_byte(serial_report):
    spec, report, _ = serial_report
    sink = MemorySink()
    parallel = run_campaign(
        spec, backend=MultiprocessingBackend(n_workers=2), observer=sink
    )
    assert parallel.to_json() == report.to_json()
    assert parallel.digest == report.digest
    # Even the campaign event stream is byte-identical.
    assert [e.to_dict() for e in sink.events] == [
        e.to_dict() for e in run_and_collect_events(spec)
    ]
    assert _no_orphans()


def run_and_collect_events(spec):
    sink = MemorySink()
    run_campaign(spec, observer=sink)
    return sink.events


def test_backend_equivalence_random_config_sweep():
    """Every registered crawler, seeded configs: serial digest ==
    multiprocessing digest.

    This is the runtime shard-safety check.  A crawl that leaks state
    into module scope changes the next crawl in the same process: the
    serial backend runs every shard in this process, and a repeat run
    starts from whatever the first one left behind, while pool workers
    start fresh.  Each shard crawls two sites, and these four sites at
    budget 600 take an SB-CLASSIFIER campaign past the classifier's 40
    warm-up fits, so leaked warm-up state changes the crawl."""
    rng = derive_rng(2024, "test", "campaign-sweep")
    for crawler in CRAWLER_NAMES:
        spec = CampaignSpec(
            sites=("be", "cn", "ed", "ju"),
            crawler=crawler,
            seed=rng.randrange(1, 100),
            scale=0.05,
            budget=600,
            n_shards=2,
            n_workers=2,
            politeness_delay=rng.choice((0.5, 1.0, 2.0)),
        )
        serial = run_campaign(spec)
        assert [len(p.sites) for p in serial.partitions] == [2, 2]
        assert run_campaign(spec).to_json() == serial.to_json(), (
            f"{crawler}: a repeat serial run diverged for {spec}"
        )
        parallel = run_campaign(
            spec, backend=MultiprocessingBackend(n_workers=spec.n_workers)
        )
        assert serial.to_json() == parallel.to_json(), (
            f"{crawler}: backend divergence for {spec}"
        )
    assert _no_orphans()


# -- graceful shutdown -----------------------------------------------------


def test_serial_interrupt_yields_partial_report(monkeypatch):
    import repro.campaign.workers as workers

    spec = CampaignSpec(sites=SMALL_SITES, n_shards=4, n_workers=2, **TINY)
    real = workers.run_shard
    calls = []

    def explode_after_one(task, *options):
        if calls:
            raise KeyboardInterrupt
        calls.append(task.shard_id)
        return real(task)

    monkeypatch.setattr(workers, "run_shard", explode_after_one)
    report = run_campaign(spec)
    assert report.partial
    statuses = [row["status"] for row in report.shard_rows]
    assert statuses.count("completed") == 1
    assert statuses.count("interrupted") == len(statuses) - 1
    assert "[PARTIAL]" in report.render()


def test_multiprocessing_interrupt_shuts_down_gracefully():
    """A Ctrl-C mid-collection terminates the pool, keeps the collected
    shards, reports the rest as interrupted, and leaves no orphans."""
    spec = CampaignSpec(sites=SMALL_SITES, n_shards=4, n_workers=2, **TINY)

    def interrupt_after_first(outcome):
        raise KeyboardInterrupt

    sink = MemorySink()
    report = run_campaign(
        spec,
        backend=MultiprocessingBackend(
            n_workers=2, _collect_hook=interrupt_after_first
        ),
        observer=sink,
    )
    assert report.partial
    statuses = [row["status"] for row in report.shard_rows]
    assert statuses.count("completed") == 1
    assert statuses.count("interrupted") == len(statuses) - 1
    # Interrupted shards still appear in the event stream, marked.
    finished = {e.shard_id: e.status for e in sink.events
                if e.kind == "shard_finished"}
    assert sorted(finished) == [p.shard_id for p in report.partitions]
    assert sorted(finished.values()).count("interrupted") == len(statuses) - 1
    assert _no_orphans()


# -- run_shard --------------------------------------------------------------


def test_run_shard_traces_and_ledger(tmp_path):
    spec = CrawlSpec("qa", **TINY)
    task = ShardTask(shard_id=0, specs=(spec,), trace_dir=str(tmp_path))
    outcome = run_shard(task)
    assert outcome.status == "completed"
    [site] = outcome.sites
    assert site.site == "qa"
    assert site.n_requests > 0
    assert site.ledger.n_requests == site.n_requests
    assert len(site.trace_digest) == 64
    trace_file = tmp_path / trace_name(spec)
    assert trace_file.name == f"qa-BFS-s{TINY['seed']}.jsonl"
    assert trace_file.exists()
    # The shard's metrics registry folded the fetch stream.
    assert outcome.metrics.get("requests_total").value == site.n_requests


def test_campaign_creates_a_missing_trace_dir(tmp_path):
    """The worker creates the trace directory (with parents) itself, so
    a library caller needs no CLI-side setup."""
    trace_dir = tmp_path / "missing" / "traces"
    spec = CampaignSpec(sites=("qa",), crawler="BFS", scale=0.05,
                        budget=50, trace_dir=str(trace_dir))
    report = run_campaign(spec)
    assert not report.partial
    # named by the crawl's own seed, so the file's meta reproduces it
    assert (trace_dir / f"qa-BFS-s{site_seed(spec.seed, 'qa')}.jsonl").is_file()


def test_partition_dataclass_shape():
    p = Partition(shard_id=0, sites=("a", "b"))
    assert p.n_sites == 2
