"""Kill-and-resume byte-equivalence (the docs/checkpoint.md guarantee).

Stop a crawl at step k, resume it from the final checkpoint, and the
result must be byte-identical to a run that was never interrupted —
crawl fingerprint, JSONL event stream, ledger, and (for campaigns) the
merged report.  ``interrupt_at`` and a deterministic countdown flag
stand in for SIGTERM so the sweep needs no signals or subprocesses.
"""

import json

import pytest

from repro.baselines import CRAWLER_NAMES, TPOffCrawler, make_crawler
from repro.campaign import CampaignSpec, SerialBackend, run_campaign
from repro.campaign.workers import ShardTask, run_shard
from repro.checkpoint import (
    CheckpointError,
    CheckpointStore,
    CrawlCheckpointer,
    CrawlInterrupted,
    canonical_json,
)
from repro.core.actions import ActionSpace
from repro.core.crawler import SBConfig, sb_classifier
from repro.core.tagpath import TagPathVectorizer
from repro.http.environment import CrawlEnvironment
from repro.webgraph.sites import load_paper_site

SITE = "be"
SCALE = 0.1
BUDGET = 120.0


def _fingerprint(result):
    """Everything observable about a crawl, as canonical bytes."""
    return canonical_json({
        "visited": sorted(result.visited),
        "targets": sorted(result.targets),
        "dead_letters": list(result.dead_letters),
        "stopped_early": result.stopped_early,
        "records": [
            [r.method, r.url, r.status, r.size, r.is_target]
            for r in result.trace.records
        ],
    })


def _sb_env():
    return CrawlEnvironment(load_paper_site(SITE, scale=SCALE))


def _sb_reference():
    return _fingerprint(
        sb_classifier(SBConfig(seed=3)).crawl(_sb_env(), budget=BUDGET)
    )


@pytest.mark.parametrize("k", [1, 5, 15, 33])
def test_sb_crawl_interrupt_resume_is_byte_identical(k, tmp_path):
    reference = _sb_reference()
    store = CheckpointStore(tmp_path)

    interrupted = CrawlCheckpointer(store=store, every=7, interrupt_at=k)
    with pytest.raises(CrawlInterrupted) as exc_info:
        sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=interrupted
        )
    assert exc_info.value.step == k

    resumed = CrawlCheckpointer(store=store, every=7)
    resumed.arm_resume(store.read_latest())
    result = sb_classifier(SBConfig(seed=3)).crawl(
        _sb_env(), budget=BUDGET, checkpoint=resumed
    )
    assert _fingerprint(result) == reference


def test_sb_resume_past_classifier_warm_up_is_byte_identical(tmp_path):
    """Interrupted after the classifier's 40th fit, when its replay
    window has been dropped: the resumed crawl still matches."""
    def run(checkpoint=None):
        env = CrawlEnvironment(load_paper_site(SITE, scale=0.2))
        return sb_classifier(SBConfig(seed=3)).crawl(
            env, budget=600, checkpoint=checkpoint
        )

    reference = _fingerprint(run())
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        run(CrawlCheckpointer(store=store, every=50, interrupt_at=190))
    classifier = store.read_latest().payload["components"]["classifier"]
    assert classifier["n_batches_trained"] >= 40
    assert classifier["replay"] == {"vectors": [], "labels": []}
    resumed = CrawlCheckpointer(store=store, every=50)
    resumed.arm_resume(store.read_latest())
    assert _fingerprint(run(resumed)) == reference


def test_sb_resume_replays_a_multi_level_action_space(tmp_path):
    """``ed``'s unique-id DOM noise yields many distinct tag paths: at
    step 20 the action space holds more than M = 8 actions, so the
    resume rebuilds a multi-level HNSW graph from the replayed paths."""
    def run(checkpoint=None):
        env = CrawlEnvironment(load_paper_site("ed", scale=0.05))
        return sb_classifier(SBConfig(seed=3)).crawl(
            env, budget=150, checkpoint=checkpoint
        )

    reference = _fingerprint(run())
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        run(CrawlCheckpointer(store=store, every=7, interrupt_at=20))
    replayed = ActionSpace(TagPathVectorizer(), seed=3)
    replayed.restore_state(store.read_latest().payload["components"]["actions"])
    assert replayed.n_actions > replayed.index.M
    assert replayed.index._max_level >= 1
    resumed = CrawlCheckpointer(store=store, every=7)
    resumed.arm_resume(store.read_latest())
    assert _fingerprint(run(resumed)) == reference


def _url_cont_fingerprint(checkpoint=None):
    """The crawl fingerprint plus the classifier's final state, whose
    weights show what every label was trained on."""
    crawler = sb_classifier(SBConfig(seed=3, feature_set="URL_CONT"))
    result = crawler.crawl(_sb_env(), budget=BUDGET, checkpoint=checkpoint)
    return _fingerprint(result), canonical_json(crawler._classifier.snapshot_state())


@pytest.mark.parametrize("k", [20, 30])
def test_url_cont_resume_with_pending_link_vectors_is_byte_identical(k, tmp_path):
    """URL_CONT trains each GET label on the vector predicted at
    discovery, link context included; a resume after the HEAD phase
    must restore those vectors, not rebuild them URL-only, and a payload
    without them is refused."""
    reference = _url_cont_fingerprint()
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        _url_cont_fingerprint(
            CrawlCheckpointer(store=store, every=7, interrupt_at=k)
        )
    classifier = store.read_latest().payload["components"]["classifier"]
    assert not classifier["initial_training_phase"]
    assert classifier["pending"], "links classified but not yet fetched"

    stripped = store.read_latest()
    del stripped.payload["components"]["classifier"]["pending"]
    refused = CrawlCheckpointer(store=store, every=7)
    refused.arm_resume(stripped)
    with pytest.raises(CheckpointError, match="pending"):
        _url_cont_fingerprint(refused)

    resumed = CrawlCheckpointer(store=store, every=7)
    resumed.arm_resume(store.read_latest())
    assert _url_cont_fingerprint(resumed) == reference


def test_double_interrupt_then_resume(tmp_path):
    """Two kills at different depths, then a final resume: still
    byte-identical — restart-after-restart must not drift."""
    reference = _sb_reference()
    store = CheckpointStore(tmp_path)

    first = CrawlCheckpointer(store=store, every=5, interrupt_at=10)
    with pytest.raises(CrawlInterrupted):
        sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=first
        )
    second = CrawlCheckpointer(store=store, every=5, interrupt_at=25)
    second.arm_resume(store.read_latest())
    with pytest.raises(CrawlInterrupted):
        sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=second
        )
    final = CrawlCheckpointer(store=store, every=5)
    final.arm_resume(store.read_latest())
    result = sb_classifier(SBConfig(seed=3)).crawl(
        _sb_env(), budget=BUDGET, checkpoint=final
    )
    assert _fingerprint(result) == reference


def test_resume_does_not_duplicate_periodic_checkpoints(tmp_path):
    """The resume step was already saved by the interrupted run: the
    resumed run must not write a second checkpoint for it."""
    store = CheckpointStore(tmp_path)
    ckpt = CrawlCheckpointer(store=store, every=10, interrupt_at=30)
    with pytest.raises(CrawlInterrupted):
        sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=ckpt
        )
    resumed = CrawlCheckpointer(store=store, every=10, interrupt_at=31)
    resumed.arm_resume(store.read_latest())
    n_before = len(store.read_all())
    with pytest.raises(CrawlInterrupted):
        sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=resumed
        )
    steps = [entry.step for entry in store.read_all()]
    assert len(steps) == len(set(steps)), f"duplicate checkpoint steps: {steps}"
    assert len(store.read_all()) > 0 and n_before > 0


@pytest.mark.parametrize("crawler_name", CRAWLER_NAMES)
def test_baseline_crawl_interrupt_resume(crawler_name, tmp_path):
    """Every registry crawler resumes byte-identically (the kernel
    snapshots the shared crawl state, each policy its own)."""
    def run(checkpoint=None):
        crawler = make_crawler(crawler_name, seed=3)
        return crawler.crawl(_sb_env(), budget=BUDGET, checkpoint=checkpoint)

    reference = _fingerprint(run())
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        run(CrawlCheckpointer(store=store, every=6, interrupt_at=25))
    assert store.read_latest().payload["crawler"] == crawler_name
    resumed = CrawlCheckpointer(store=store, every=6)
    resumed.arm_resume(store.read_latest())
    assert _fingerprint(run(resumed)) == reference


@pytest.mark.parametrize("k", [5, 30])
def test_tpoff_resume_across_its_phase_transition(k, tmp_path):
    """TP-OFF's bootstrap queue and exploitation heap both survive a
    checkpoint: interrupt before and after the phase change."""
    def run(checkpoint=None):
        return TPOffCrawler(bootstrap_pages=15, seed=3).crawl(
            _sb_env(), budget=BUDGET, checkpoint=checkpoint
        )

    reference = _fingerprint(run())
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        run(CrawlCheckpointer(store=store, every=4, interrupt_at=k))
    exploiting = store.read_latest().payload["components"]["frontier"]["exploiting"]
    assert exploiting is (k > 15)
    resumed = CrawlCheckpointer(store=store, every=4)
    resumed.arm_resume(store.read_latest())
    assert _fingerprint(run(resumed)) == reference


def test_resume_across_journal_restarts_is_byte_identical(tmp_path):
    """Each resume opens a fresh store, as a new process does, so each
    starts a new journal: interrupt, resume, save three more times,
    interrupt again, resume again — still the uninterrupted crawl."""
    reference = _sb_reference()

    def run(checkpointer):
        return sb_classifier(SBConfig(seed=3)).crawl(
            _sb_env(), budget=BUDGET, checkpoint=checkpointer
        )

    with pytest.raises(CrawlInterrupted):
        run(CrawlCheckpointer(store=CheckpointStore(tmp_path), every=5,
                              interrupt_at=12))
    assert sorted(p.name for p in tmp_path.glob("journal-*")) == [
        "journal-00000001.jsonl"]

    store = CheckpointStore(tmp_path)
    second = CrawlCheckpointer(store=store, every=5, interrupt_at=28)
    second.arm_resume(store.read_latest())
    with pytest.raises(CrawlInterrupted):
        run(second)
    saved = [entry.step for entry in store.read_all()]
    assert saved == [25, 28]                    # saves at 15, 20, 25, then 28
    journals = sorted(p.name for p in tmp_path.glob("journal-*"))
    assert len(journals) == 1 and journals != ["journal-00000001.jsonl"]
    assert store.read_latest().payload == second.last_payload

    store = CheckpointStore(tmp_path)
    final = CrawlCheckpointer(store=store, every=5)
    final.arm_resume(store.read_latest())
    assert _fingerprint(run(final)) == reference


class _CheckedStore(CheckpointStore):
    """Reads every checkpoint back as soon as it is written."""

    def write_checkpoint(self, payload, step=0):
        path = super().write_checkpoint(payload, step)
        assert self.read_latest().payload == payload
        assert CheckpointStore(self.directory).read_latest().payload == payload
        return path


@pytest.mark.parametrize("crawler_name", CRAWLER_NAMES)
def test_every_crawler_payload_reads_back_as_written(crawler_name, tmp_path):
    store = _CheckedStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        make_crawler(crawler_name, seed=3).crawl(
            _sb_env(), budget=BUDGET,
            checkpoint=CrawlCheckpointer(store=store, every=4, interrupt_at=30),
        )
    crawl = store.read_latest().payload["components"]["crawl"]
    assert len(crawl["visited"]) == len(set(crawl["visited"]))
    assert set(crawl["targets"]) <= set(crawl["visited"]) <= set(crawl["seen"])


def test_resume_rejects_another_crawlers_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(CrawlInterrupted):
        make_crawler("BFS").crawl(
            _sb_env(), budget=BUDGET,
            checkpoint=CrawlCheckpointer(store=store, interrupt_at=3),
        )
    resumed = CrawlCheckpointer(store=store)
    resumed.arm_resume(store.read_latest())
    with pytest.raises(CheckpointError):
        make_crawler("DFS").crawl(_sb_env(), budget=BUDGET, checkpoint=resumed)


class CountdownFlag:
    """Deterministic ShutdownFlag stand-in: set after N is_set() calls."""

    def __init__(self, trip_after: int) -> None:
        self.remaining = trip_after

    def is_set(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0

    def set(self) -> None:
        self.remaining = 0


def _shard_task(tmp_path, resume=False):
    return ShardTask(
        shard_id=0, sites=("be", "cl"), crawler="SB-CLASSIFIER", seed=5,
        scale=SCALE, budget=BUDGET, trace_dir=str(tmp_path / "traces"),
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=15,
        resume=resume,
    )


def test_run_shard_interrupt_resume_is_byte_identical(tmp_path):
    reference_task = ShardTask(
        shard_id=0, sites=("be", "cl"), crawler="SB-CLASSIFIER", seed=5,
        scale=SCALE, budget=BUDGET,
        trace_dir=str(tmp_path / "ref-traces"),
    )
    reference = run_shard(reference_task)

    interrupted = run_shard(
        _shard_task(tmp_path), shutdown=CountdownFlag(60)
    )
    assert interrupted.status == "interrupted"

    resumed = run_shard(_shard_task(tmp_path, resume=True))
    assert resumed.status == "completed"
    assert [s.site for s in resumed.sites] == [s.site for s in reference.sites]
    for site_resumed, site_reference in zip(resumed.sites, reference.sites):
        assert site_resumed == site_reference
    # the JSONL traces must also be byte-identical, with no duplicated
    # events from the interrupted attempt
    for name in ("be", "cl"):
        trace_name = f"{name}-SB-CLASSIFIER-s5.jsonl"
        resumed_trace = (tmp_path / "traces" / trace_name).read_bytes()
        reference_trace = (tmp_path / "ref-traces" / trace_name).read_bytes()
        assert resumed_trace == reference_trace, f"trace drift on {name}"


def _campaign_spec(trace_dir=None):
    return CampaignSpec(
        sites=("be", "cl", "cn"), crawler="SB-CLASSIFIER", seed=5,
        scale=SCALE, budget=BUDGET, n_shards=2, n_workers=2,
        trace_dir=trace_dir,
    )


def test_campaign_interrupt_resume_matches_uninterrupted_report(tmp_path):
    reference = run_campaign(_campaign_spec(), backend=SerialBackend())
    assert not reference.partial

    checkpoint_dir = str(tmp_path / "ckpt")
    flag = CountdownFlag(50)
    partial = run_campaign(
        _campaign_spec(), backend=SerialBackend(shutdown=flag),
        checkpoint_dir=checkpoint_dir, checkpoint_every=15,
    )
    assert partial.partial, "the countdown flag must interrupt mid-campaign"

    resumed = run_campaign(
        _campaign_spec(), backend=SerialBackend(),
        checkpoint_dir=checkpoint_dir, checkpoint_every=15, resume=True,
    )
    assert not resumed.partial
    assert resumed.to_json() == reference.to_json()


def test_checkpoint_params_do_not_change_the_report_digest(tmp_path):
    """Checkpointing disarmed vs armed: same digest — the config block
    must not leak checkpoint parameters into the canonical report."""
    plain = run_campaign(_campaign_spec(), backend=SerialBackend())
    checkpointed = run_campaign(
        _campaign_spec(), backend=SerialBackend(),
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=15,
    )
    assert checkpointed.to_json() == plain.to_json()


def test_trace_truncation_rejects_bad_inputs(tmp_path):
    from repro.obs.sinks import JsonlSink, truncate_events

    path = tmp_path / "t.jsonl"
    with pytest.raises((FileNotFoundError, ValueError)):
        truncate_events(path, 0)        # missing file

    from repro.obs.events import TargetFound

    with JsonlSink(path, meta={"site": SITE}) as sink:
        for n in range(4):
            sink.on_event(
                TargetFound(ordinal=n, url=f"u{n}", n_targets=n + 1)
            )
    with pytest.raises(ValueError):
        truncate_events(path, 9)        # more events than the file holds
    truncate_events(path, 2)
    lines = path.read_text().splitlines()
    assert len(lines) == 3              # header + 2 events


def test_jsonl_sink_append_mode_continues_event_stream(tmp_path):
    from repro.obs.events import TargetFound
    from repro.obs.sinks import JsonlSink

    path = tmp_path / "t.jsonl"
    with JsonlSink(path, meta={"site": SITE}) as sink:
        for n in range(3):
            sink.on_event(
                TargetFound(ordinal=n, url=f"u{n}", n_targets=n + 1)
            )
        snapshot = json.loads(canonical_json(sink.snapshot_state()))

    with JsonlSink(path, append=True) as sink:
        sink.restore_state(snapshot)    # counts match: no error
        sink.on_event(TargetFound(ordinal=3, url="u3", n_targets=4))
    assert len(path.read_text().splitlines()) == 5

    with JsonlSink(path, append=True) as sink:
        with pytest.raises(ValueError):
            sink.restore_state(snapshot)  # stale count must fail loudly
