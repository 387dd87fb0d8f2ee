"""Property tests: every Checkpointable survives snapshot → restore.

For each component the invariant is the same (docs/checkpoint.md):
``snapshot_state`` serialised through canonical JSON (the exact bytes a
`CheckpointStore` persists), restored into a *freshly constructed*
component, must reproduce the snapshot byte for byte — and, for the
stateful/stochastic components, the restored copy must *continue*
identically to the original.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import Checkpointable, canonical_json

FEW = settings(max_examples=20, deadline=None)


def _roundtrip(component, fresh):
    """Snapshot → JSON bytes → restore into ``fresh`` → snapshot again."""
    assert isinstance(component, Checkpointable)
    blob = canonical_json(component.snapshot_state())
    # decode exactly like CheckpointStore does: tuples become lists,
    # dict-key types must already be strings
    fresh.restore_state(json.loads(blob))
    assert canonical_json(fresh.snapshot_state()) == blob
    return fresh


# -- frontier ------------------------------------------------------------


@FEW
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 4)), max_size=60
    ),
    pops=st.integers(0, 10),
    seed=st.integers(0, 3),
)
def test_frontier_roundtrip_and_continuation(ops, pops, seed):
    from repro.core.frontier import Frontier

    frontier = Frontier(seed=seed)
    for url_index, action_id in ops:
        frontier.add(f"https://s.example/p{url_index}", action_id)
    for _ in range(pops):
        if len(frontier) == 0:
            break
        frontier.pop_random()
    restored = _roundtrip(frontier, Frontier(seed=seed))
    # continuation: the Fenwick tree and the RNG stream must both have
    # survived — the next weighted draws agree
    while len(frontier):
        assert restored.pop_random() == frontier.pop_random()


# -- bandits -------------------------------------------------------------


@FEW
@given(
    rewards=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0, 1, allow_nan=False)),
        max_size=40,
    )
)
def test_sleeping_bandit_roundtrip(rewards):
    from repro.core.bandit import SleepingBandit

    bandit = SleepingBandit()
    for action_id, reward in rewards:
        bandit.record_selection(action_id)
        bandit.record_reward(action_id, reward)
    restored = _roundtrip(bandit, SleepingBandit())
    if bandit.arms:
        awake = sorted(bandit.arms)
        assert restored.select(awake, t=50) == bandit.select(awake, t=50)


@FEW
@given(
    rewards=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0, 1, allow_nan=False)),
        max_size=30,
    ),
    seed=st.integers(0, 5),
    policy=st.sampled_from(["epsilon-greedy", "thompson"]),
)
def test_stochastic_bandits_roundtrip_and_continuation(rewards, seed, policy):
    from repro.core.bandit import EpsilonGreedyBandit, ThompsonSamplingBandit

    make = {
        "epsilon-greedy": lambda: EpsilonGreedyBandit(seed=seed),
        "thompson": lambda: ThompsonSamplingBandit(seed=seed),
    }[policy]
    bandit = make()
    awake = [0, 1, 2]
    for action_id, reward in rewards:
        bandit.record_selection(action_id % 3)
        bandit.record_reward(action_id % 3, reward)
    bandit.select(awake, t=10)      # burn RNG state
    restored = _roundtrip(bandit, make())
    # the RNG stream continues identically after restore
    for t in range(11, 16):
        assert restored.select(awake, t=t) == bandit.select(awake, t=t)


# -- action space (vectorizer and HNSW index replayed) -------------------


_DISTINCT_PATHS = st.lists(
    st.lists(
        st.sampled_from(["html", "body", "div", "div#main", "ul", "li",
                         "a", "nav", "p.note", "span"]),
        min_size=1, max_size=6,
    ).map(" ".join),
    min_size=40, max_size=70, unique=True,
)


def _space(theta):
    from repro.core.actions import ActionSpace
    from repro.core.tagpath import TagPathVectorizer

    return ActionSpace(TagPathVectorizer(n=2, m=6), theta=theta)


@FEW
@given(
    paths=_DISTINCT_PATHS,
    theta=st.sampled_from([0.3, 0.75, 0.95]),
    data=st.data(),
)
def test_action_space_roundtrip(paths, theta, data):
    """The snapshot is the tag paths assigned so far, repeats included;
    a fresh space that replays them rebuilds the vocabulary, the HNSW
    graph and its level RNG, so both spaces continue identically."""
    repeats = data.draw(st.lists(st.sampled_from(paths), max_size=20))
    sequence = data.draw(st.permutations(paths + repeats))
    step = data.draw(st.integers(0, len(sequence)))
    space = _space(theta)
    for path in sequence[:step]:
        space.assign(path)
    restored = _roundtrip(space, _space(theta))
    for path in sequence[step:]:
        assert restored.assign(path) == space.assign(path)
    assert restored.n_actions == space.n_actions
    assert restored.vectorizer.vocabulary_size == space.vectorizer.vocabulary_size
    for action_id in range(space.n_actions):
        assert restored.stats(action_id) == space.stats(action_id)
        assert (restored.centroid(action_id).tobytes()
                == space.centroid(action_id).tobytes())


def test_action_space_restores_only_before_its_first_assign():
    """Replaying onto a space or vectorizer that has already seen a path
    would rebuild the wrong state, so restore refuses."""
    from repro.checkpoint import CheckpointError
    from repro.core.actions import ActionSpace

    space = _space(0.75)
    space.assign("html body a")
    snapshot = json.loads(canonical_json(space.snapshot_state()))
    used = _space(0.75)
    used.assign("html body nav a")
    with pytest.raises(CheckpointError):
        used.restore_state(snapshot)
    primed = _space(0.75).vectorizer
    primed.project("html body p")
    with pytest.raises(CheckpointError):
        ActionSpace(primed).restore_state(snapshot)


# -- URL classifier ------------------------------------------------------


@FEW
@given(
    labels=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(["HTML", "Target"])),
        max_size=25,
    ),
    model=st.sampled_from(["LR", "NB"]),
    feature_set=st.sampled_from(["URL_ONLY", "URL_CONT"]),
    classified=st.sets(st.integers(0, 40), max_size=10),
)
def test_url_classifier_roundtrip(labels, model, feature_set, classified):
    from repro.core.url_classifier import LinkContext, OnlineUrlClassifier, UrlClass

    def make():
        return OnlineUrlClassifier(
            batch_size=5, model=model, feature_set=feature_set, seed=1
        )

    clf = make()
    for url_index in sorted(classified):  # pending discovery-time vectors
        clf.classify(f"https://s.example/doc{url_index}.html",
                     LinkContext(anchor=f"link {url_index}", dom_path="ul li a"))
    for url_index, label in labels:
        clf.add_labeled(
            f"https://s.example/doc{url_index}.html", UrlClass(label)
        )
    restored = _roundtrip(clf, make())
    if feature_set == "URL_CONT":
        assert restored._pending.keys() == clf._pending.keys()
    probe = "https://s.example/record999.pdf"
    assert restored.classify(probe) == clf.classify(probe)


# -- monitors, matrices, ledgers -----------------------------------------


@FEW
@given(
    counts=st.lists(st.integers(0, 3), max_size=40),
    window=st.integers(1, 5),
)
def test_early_stopping_roundtrip(counts, window):
    from repro.core.early_stopping import EarlyStoppingMonitor

    def make():
        return EarlyStoppingMonitor(window=window, patience=3)

    monitor = make()
    total = 0
    for delta in counts:
        total += delta
        monitor.observe(total)
    restored = _roundtrip(monitor, make())
    for step in range(5):
        total += 1
        assert restored.observe(total) == monitor.observe(total)


@FEW
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["HTML", "Target", "Neither"]),
                  st.sampled_from(["HTML", "Target", "Neither"])),
        max_size=30,
    )
)
def test_confusion_matrix_roundtrip(pairs):
    from repro.ml.metrics import ConfusionMatrix

    matrix = ConfusionMatrix()
    for true_label, predicted in pairs:
        matrix.update(true_label, predicted)
    restored = _roundtrip(matrix, ConfusionMatrix())
    assert restored.total == matrix.total


@FEW
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["GET", "HEAD"]), st.integers(0, 9000),
                  st.booleans()),
        max_size=30,
    )
)
def test_cost_ledger_roundtrip(ops):
    from repro.http.ledger import CostLedger

    ledger = CostLedger()
    for method, size, is_target in ops:
        ledger.record(method, size, is_target)
    restored = _roundtrip(ledger, CostLedger())
    assert restored.n_requests == ledger.n_requests


@FEW
@given(
    disallow=st.lists(st.sampled_from(["/admin", "/tmp", "/x"]), max_size=3),
    allow=st.lists(st.sampled_from(["/admin/pub", "/y"]), max_size=2),
    delay=st.one_of(st.none(), st.floats(0, 5, allow_nan=False)),
)
def test_robots_policy_roundtrip(disallow, allow, delay):
    from repro.http.robots import RobotsPolicy

    policy = RobotsPolicy(
        disallow=disallow, allow=allow, crawl_delay=delay,
        sitemaps=["https://s.example/sitemap.xml"],
    )
    restored = _roundtrip(policy, RobotsPolicy())
    assert restored.allowed("https://s.example/admin/x") == policy.allowed(
        "https://s.example/admin/x"
    )


# -- observability -------------------------------------------------------


@FEW
@given(
    counter_incs=st.lists(st.floats(0, 10, allow_nan=False), max_size=15),
    gauge_value=st.floats(-5, 5, allow_nan=False),
    histogram_obs=st.lists(st.floats(0, 100, allow_nan=False), max_size=15),
)
def test_metrics_registry_roundtrip(counter_incs, gauge_value, histogram_obs):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("crawl_requests_total")
    for amount in counter_incs:
        counter.inc(amount)
    registry.gauge("frontier_size").set(gauge_value)
    histogram = registry.histogram("page_bytes", (10.0, 50.0, 100.0))
    for value in histogram_obs:
        histogram.observe(value)
    restored = _roundtrip(registry, MetricsRegistry())
    assert restored.render() == registry.render()


def test_memory_sink_snapshot_is_a_rewind_point():
    from repro.obs.sinks import MemorySink

    sink = MemorySink()
    for n in range(7):
        sink.on_event(f"event-{n}")
    snapshot = json.loads(canonical_json(sink.snapshot_state()))
    for n in range(3):
        sink.on_event(f"late-event-{n}")
    sink.restore_state(snapshot)
    assert len(sink) == 7
    assert canonical_json(sink.snapshot_state()) == canonical_json(snapshot)


# -- HTTP client (needs a simulated server, so plain deterministic test) --


def test_http_client_roundtrip():
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    env = CrawlEnvironment(load_paper_site("be", scale=0.05))
    client = env.new_client(crawler_name="probe")
    for _ in range(5):
        client.get(env.graph.root_url)
    blob = canonical_json(client.snapshot_state())
    fresh = env.new_client(crawler_name="probe")
    fresh.restore_state(json.loads(blob))
    assert canonical_json(fresh.snapshot_state()) == blob
    assert fresh.ledger.n_requests == client.ledger.n_requests


def test_http_client_snapshot_extends_its_rows_and_restore_resets_them():
    """The client keeps the trace rows it snapshotted and adds only new
    records; restoring an older snapshot into the same client must not
    leave the newer rows behind."""
    from repro.checkpoint import Log
    from repro.http.environment import CrawlEnvironment
    from repro.webgraph.sites import load_paper_site

    env = CrawlEnvironment(load_paper_site("be", scale=0.05))
    client = env.new_client(crawler_name="probe")
    client.get(env.graph.root_url)
    early = client.snapshot_state()
    early_blob = canonical_json(early)
    for _ in range(3):
        client.get(env.graph.root_url)
    late = client.snapshot_state()["trace"]["records"]
    assert isinstance(late, Log) and len(late) == 4
    assert late[0] is early["trace"]["records"][0]     # rows are reused
    client.restore_state(json.loads(early_blob))
    assert canonical_json(client.snapshot_state()) == early_blob
