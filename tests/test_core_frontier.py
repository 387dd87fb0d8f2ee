"""Tests for the action-partitioned frontier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import Frontier


def test_add_and_pop_from_action():
    frontier = Frontier(seed=0)
    frontier.add("u1", 0)
    frontier.add("u2", 0)
    frontier.add("u3", 1)
    assert len(frontier) == 3
    url = frontier.pop_from_action(0)
    assert url in ("u1", "u2")
    assert len(frontier) == 2
    assert url not in frontier


def test_duplicate_add_ignored():
    frontier = Frontier()
    frontier.add("u1", 0)
    frontier.add("u1", 1)  # already present under action 0
    assert len(frontier) == 1
    assert frontier.action_of("u1") == 0


def test_pop_from_sleeping_action_raises():
    frontier = Frontier()
    frontier.add("u1", 0)
    frontier.pop_from_action(0)
    with pytest.raises(KeyError):
        frontier.pop_from_action(0)
    with pytest.raises(KeyError):
        frontier.pop_from_action(99)


def test_awake_actions():
    frontier = Frontier()
    frontier.add("u1", 0)
    frontier.add("u2", 1)
    assert sorted(frontier.awake_actions()) == [0, 1]
    frontier.pop_from_action(0)
    assert frontier.awake_actions() == [1]


def test_pop_random_empties_everything():
    frontier = Frontier(seed=1)
    urls = {f"u{i}" for i in range(20)}
    for i, url in enumerate(sorted(urls)):
        frontier.add(url, i % 3)
    popped = {frontier.pop_random() for _ in range(20)}
    assert popped == urls
    assert len(frontier) == 0
    with pytest.raises(KeyError):
        frontier.pop_random()


def test_discard():
    frontier = Frontier()
    frontier.add("u1", 0)
    assert frontier.discard("u1")
    assert not frontier.discard("u1")
    assert len(frontier) == 0
    assert frontier.awake_actions() == []


def test_pop_from_action_uniformity():
    frontier = Frontier(seed=3)
    for i in range(3):
        frontier.add(f"u{i}", 0)
    # pop all; all three URLs must eventually come out
    popped = {frontier.pop_from_action(0) for _ in range(3)}
    assert popped == {"u0", "u1", "u2"}


@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 4)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60)
def test_frontier_invariants(operations):
    """Size bookkeeping and membership stay consistent under mixed ops."""
    frontier = Frontier(seed=0)
    reference: dict[str, int] = {}
    for number, action in operations:
        url = f"u{number}"
        frontier.add(url, action)
        if url not in reference:
            reference[url] = action
    assert len(frontier) == len(reference)
    for url, action in reference.items():
        assert url in frontier
        assert frontier.action_of(url) == action
        assert frontier.size_of(action) > 0
    # Drain everything through per-action pops.
    drained = set()
    while frontier.awake_actions():
        action = frontier.awake_actions()[0]
        drained.add(frontier.pop_from_action(action))
    assert drained == set(reference)
    assert len(frontier) == 0


class _ChoicesFrontier(Frontier):
    """Pre-Fenwick global draw: ``random.choices`` over rebuilt weight
    lists.  The optimized ``pop_random`` must replay its RNG stream
    bit-for-bit, so crawls are byte-identical across the change."""

    def pop_random(self) -> str:
        if len(self) == 0:
            raise KeyError("frontier is empty")
        pools = [(a, p) for a, p in self._pools.items() if len(p) > 0]
        action_id = self._rng.choices(
            [a for a, _ in pools], weights=[len(p) for _, p in pools], k=1
        )[0]
        return self.pop_from_action(action_id)


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "pop_random", "pop_action", "discard"]),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=80),
        ),
        max_size=120,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pop_random_matches_choices_reference(operations, seed):
    """Fenwick draw == random.choices draw: same URLs, same RNG state;
    and the awake list is the ``len``-based one after every step."""
    fast, reference = Frontier(seed=seed), _ChoicesFrontier(seed=seed)
    for kind, action, serial in operations:
        url = f"u{serial}"
        if kind == "add":
            fast.add(url, action)
            reference.add(url, action)
        elif kind == "discard":
            assert fast.discard(url) == reference.discard(url)
        else:
            results = []
            for frontier in (fast, reference):
                try:
                    if kind == "pop_random":
                        results.append(frontier.pop_random())
                    else:
                        results.append(frontier.pop_from_action(action))
                except KeyError:
                    results.append(None)
            assert results[0] == results[1]
        assert len(fast) == len(reference)
        assert fast.n_awake() == len(reference.awake_actions())
        # awake_actions reads each pool's item list, not its __len__
        assert fast.awake_actions() == [
            a for a, p in fast._pools.items() if len(p) > 0
        ]
        assert fast._rng.getstate() == reference._rng.getstate()


def test_n_awake_counter_tracks_pool_state():
    frontier = Frontier(seed=1)
    assert frontier.n_awake() == 0
    frontier.add("a", 0)
    frontier.add("b", 0)
    frontier.add("c", 1)
    assert frontier.n_awake() == 2
    frontier.pop_from_action(1)
    assert frontier.n_awake() == 1
    frontier.discard("a")
    frontier.discard("b")
    assert frontier.n_awake() == 0
    assert frontier.awake_actions() == []
