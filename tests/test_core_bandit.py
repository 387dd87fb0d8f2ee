"""Tests for the sleeping bandit (AUER scores, Sec. 3.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandit import DEFAULT_ALPHA, ArmState, SleepingBandit


def test_default_alpha_is_2sqrt2():
    assert abs(DEFAULT_ALPHA - 2 * math.sqrt(2)) < 1e-12


def test_sleeping_action_scores_zero():
    bandit = SleepingBandit()
    bandit.ensure_arm(0)
    bandit.record_reward(0, 100.0)
    assert bandit.score(0, t=10, awake=False) == 0.0
    assert bandit.score(0, t=10, awake=True) > 0.0


def test_score_formula():
    bandit = SleepingBandit(alpha=2.0, epsilon=0.0)
    bandit.ensure_arm(0)
    bandit.record_selection(0)
    bandit.record_reward(0, 4.0)
    t = 8
    expected = 4.0 + 2.0 * math.sqrt(math.log(t) / 1.0)
    assert abs(bandit.score(0, t) - expected) < 1e-12


def test_unselected_arm_has_huge_exploration():
    bandit = SleepingBandit()
    bandit.ensure_arm(0)
    bandit.ensure_arm(1)
    bandit.record_selection(0)
    bandit.record_reward(0, 5.0)
    # arm 1 never selected: epsilon guard produces a very large bonus
    assert bandit.score(1, t=10) > bandit.score(0, t=10)


def test_select_prefers_high_mean_when_explored():
    bandit = SleepingBandit()
    for arm in (0, 1):
        for _ in range(50):
            bandit.record_selection(arm)
    for _ in range(50):
        bandit.record_reward(0, 10.0)
        bandit.record_reward(1, 0.0)
    assert bandit.select([0, 1], t=1000) == 0


def test_select_requires_awake_actions():
    with pytest.raises(ValueError):
        SleepingBandit().select([], t=1)


def _reference_select(bandit, awake_actions, t):
    """``SleepingBandit.select`` before it inlined its helpers: one
    ``ensure_arm`` and one ``score`` (with its own ``log(t)``) per arm."""
    best_action = awake_actions[0]
    best_score = -math.inf
    for action_id in awake_actions:
        bandit.ensure_arm(action_id)
        score = bandit.score(action_id, t)
        if score > best_score:
            best_score = score
            best_action = action_id
    bandit.last_score = best_score
    return best_action


def _bits(bandit):
    return bandit.last_score.hex(), [
        (a, s.n_selected, s.mean_reward.hex(), s.total_reward.hex())
        for a, s in bandit.arms.items()
    ]


#: few distinct values, so equal scores (ties) are common
_MEANS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3, 10.0]),
    st.floats(-100.0, 100.0, allow_nan=False),
)


@given(
    arms=st.dictionaries(
        st.integers(0, 12),
        st.tuples(st.integers(0, 5), _MEANS, _MEANS),
        max_size=10,
    ),
    awake=st.lists(st.integers(0, 15), min_size=1, max_size=12),
    t=st.one_of(st.sampled_from([0, 1, 2, 10**6]), st.integers(0, 10**9)),
    alpha=st.sampled_from([DEFAULT_ALPHA, 1.0, 0.0]),
    epsilon=st.sampled_from([1e-6, 0.5, 0.0]),
)
@settings(max_examples=400)
def test_select_equals_ensure_arm_score_loop(arms, awake, t, alpha, epsilon):
    """Same winner, same ``last_score`` bits and the same ``arms`` dict
    (unseen arms created in the same order) as the helper loop, over
    random arm states with ties, unseen and never-selected arms."""
    bandits = []
    for _ in range(2):
        bandit = SleepingBandit(alpha=alpha, epsilon=epsilon)
        for action_id, (n_selected, mean, total) in arms.items():
            bandit.arms[action_id] = ArmState(n_selected, mean, total)
        bandits.append(bandit)
    fast, reference = bandits
    try:
        expected = _reference_select(reference, awake, t)
    except ZeroDivisionError:
        # epsilon 0 and a never-selected arm: both must raise
        with pytest.raises(ZeroDivisionError):
            fast.select(awake, t)
        return
    assert fast.select(awake, t) == expected
    assert _bits(fast) == _bits(reference)


def test_incremental_mean_matches_algorithm4():
    """R ← R + (reward − R)/N(a), the paper's running-mean update."""
    bandit = SleepingBandit()
    rewards = [3.0, 0.0, 6.0, 1.0]
    for r in rewards:
        bandit.record_selection(0)
        bandit.record_reward(0, r)
    # N increments before the reward, so each update divides by the
    # current selection count, matching Algorithm 4 exactly.
    expected = 0.0
    for i, r in enumerate(rewards, start=1):
        expected += (r - expected) / i
    assert abs(bandit.arms[0].mean_reward - expected) < 1e-12


def test_reward_without_selection_seeds_mean():
    bandit = SleepingBandit()
    bandit.record_reward(7, 5.0)
    assert bandit.arms[7].mean_reward == 5.0


def test_nonzero_reward_stats():
    bandit = SleepingBandit()
    for arm, reward in ((0, 4.0), (1, 0.0), (2, 8.0)):
        bandit.record_selection(arm)
        bandit.record_reward(arm, reward)
    mean, std = bandit.nonzero_reward_stats()
    assert mean == 6.0
    assert abs(std - 2.0) < 1e-12


def test_top_mean_rewards():
    bandit = SleepingBandit()
    for arm, reward in enumerate([5.0, 1.0, 9.0, 3.0]):
        bandit.record_selection(arm)
        bandit.record_reward(arm, reward)
    assert bandit.top_mean_rewards(2) == [9.0, 5.0]
    assert len(bandit.top_mean_rewards(10)) == 4


def test_epsilon_greedy_exploits_when_greedy():
    from repro.core.bandit import EpsilonGreedyBandit

    bandit = EpsilonGreedyBandit(explore_probability=0.0, seed=0)
    for arm, reward in ((0, 1.0), (1, 9.0)):
        bandit.record_selection(arm)
        bandit.record_reward(arm, reward)
    assert all(bandit.select([0, 1], t=10) == 1 for _ in range(20))


def test_epsilon_greedy_explores():
    from repro.core.bandit import EpsilonGreedyBandit

    bandit = EpsilonGreedyBandit(explore_probability=1.0, seed=0)
    for arm in (0, 1):
        bandit.record_selection(arm)
        bandit.record_reward(arm, float(arm))
    picks = {bandit.select([0, 1], t=10) for _ in range(50)}
    assert picks == {0, 1}


def test_thompson_converges_to_best_arm():
    from repro.core.bandit import ThompsonSamplingBandit

    bandit = ThompsonSamplingBandit(seed=0)
    for _ in range(200):
        bandit.record_selection(0)
        bandit.record_reward(0, 10.0)
        bandit.record_selection(1)
        bandit.record_reward(1, 0.0)
    picks = [bandit.select([0, 1], t=500) for _ in range(30)]
    assert sum(1 for p in picks if p == 0) >= 28


def test_make_bandit_factory():
    import pytest

    from repro.core.bandit import (
        EpsilonGreedyBandit,
        SleepingBandit,
        ThompsonSamplingBandit,
        make_bandit,
    )

    assert type(make_bandit("auer")) is SleepingBandit
    assert isinstance(make_bandit("epsilon-greedy"), EpsilonGreedyBandit)
    assert isinstance(make_bandit("thompson"), ThompsonSamplingBandit)
    with pytest.raises(ValueError):
        make_bandit("linucb")


def test_policy_bandits_raise_on_empty():
    import pytest

    from repro.core.bandit import make_bandit

    for policy in ("epsilon-greedy", "thompson"):
        with pytest.raises(ValueError):
            make_bandit(policy).select([], t=1)
