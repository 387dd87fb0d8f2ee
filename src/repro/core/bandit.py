"""Sleeping-bandit action selection (Sec. 3.2).

Implements the AUER score the crawler maximises at every step:

    s(a) = 1_a(t) · ( R̄_a + α · sqrt( log(t) / (N_t(a) + ε) ) )

where 1_a(t) = 1 iff action a still has unvisited links (it is *awake*),
R̄_a is the running mean reward of a, N_t(a) counts how often a was
selected, α weighs exploration against exploitation (2√2 by default, the
UCB/AUER-optimal constant under standard assumptions) and ε > 0 guards
the division for never-selected actions.

A plain (non-sleeping) UCB variant is provided for ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.rng import derive_rng

#: The paper's default exploration coefficient.
DEFAULT_ALPHA = 2.0 * math.sqrt(2.0)


@dataclass
class ArmState:
    """Statistics of one bandit arm (action)."""

    n_selected: int = 0
    mean_reward: float = 0.0
    total_reward: float = 0.0


@dataclass
class SleepingBandit:
    """AUER scoring and incremental reward bookkeeping."""

    alpha: float = DEFAULT_ALPHA
    epsilon: float = 1e-6
    arms: dict[int, ArmState] = field(default_factory=dict)
    #: instrumentation (repro.obs): score of the most recent selection —
    #: lets the crawl loop report the winning score without recomputing it
    last_score: float = 0.0
    #: instrumentation (repro.obs): total pulls across all arms
    total_selections: int = 0

    def ensure_arm(self, action_id: int) -> None:
        if action_id not in self.arms:
            self.arms[action_id] = ArmState()

    def score(self, action_id: int, t: int, awake: bool = True) -> float:
        """AUER score of one action at step t (0 when sleeping)."""
        if not awake:
            return 0.0
        arm = self.arms[action_id]
        log_t = math.log(t) if t > 1 else 0.0
        exploration = self.alpha * math.sqrt(log_t / (arm.n_selected + self.epsilon))
        return arm.mean_reward + exploration

    def select(self, awake_actions: list[int], t: int) -> int:
        """Argmax of the AUER score over the awake actions."""
        if not awake_actions:
            raise ValueError("no awake action to select")
        # ``ensure_arm`` and ``score`` inlined, with ``log(t)`` taken once:
        # arms are created in the same order and each score makes the
        # IEEE operations of ``score`` in its order, so the argmax, its
        # ties and ``last_score`` keep their bits.
        arms, alpha, epsilon, sqrt = self.arms, self.alpha, self.epsilon, math.sqrt
        log_t = math.log(t) if t > 1 else 0.0
        best_action = awake_actions[0]
        best_score = -math.inf
        for action_id in awake_actions:
            arm = arms.get(action_id)
            if arm is None:
                arm = arms[action_id] = ArmState()
            score = arm.mean_reward + alpha * sqrt(log_t / (arm.n_selected + epsilon))
            if score > best_score:
                best_score = score
                best_action = action_id
        self.last_score = best_score
        return best_action

    def record_selection(self, action_id: int) -> None:
        self.ensure_arm(action_id)
        self.arms[action_id].n_selected += 1
        self.total_selections += 1

    def record_reward(self, action_id: int, reward: float) -> None:
        """Incremental mean update (final line of Algorithm 4)."""
        self.ensure_arm(action_id)
        arm = self.arms[action_id]
        if arm.n_selected == 0:
            # A reward observed for an arm never chosen by the bandit
            # (e.g. the root page): seed the mean directly.
            arm.n_selected = 1
        arm.total_reward += reward
        arm.mean_reward += (reward - arm.mean_reward) / arm.n_selected

    # -- analyses (Sec. 4.7) --------------------------------------------

    def nonzero_reward_stats(self) -> tuple[float, float]:
        """Mean and STD over arms with non-zero mean reward (Table 6)."""
        values = [s.mean_reward for s in self.arms.values() if s.mean_reward > 0.0]
        if not values:
            return 0.0, 0.0
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(variance)

    def top_mean_rewards(self, k: int = 10) -> list[float]:
        """The k highest per-action mean rewards (Figure 5)."""
        values = sorted(
            (s.mean_reward for s in self.arms.values()), reverse=True
        )
        return values[:k]

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        """Arms as a list of tuples in insertion order: the analyses
        fold ``arms.values()`` with float sums, so restore order must
        match selection order."""
        return {
            "arms": [
                [a, s.n_selected, s.mean_reward, s.total_reward]
                for a, s in self.arms.items()
            ],
            "last_score": self.last_score,
            "total_selections": self.total_selections,
        }

    def restore_state(self, state: dict) -> None:
        self.arms = {
            action_id: ArmState(
                n_selected=n_selected,
                mean_reward=mean_reward,
                total_reward=total_reward,
            )
            for action_id, n_selected, mean_reward, total_reward
            in state["arms"]
        }
        self.last_score = state["last_score"]
        self.total_selections = state["total_selections"]


@dataclass
class EpsilonGreedyBandit(SleepingBandit):
    """ε-greedy alternative (paper Appendix C): explore uniformly with
    probability ε, otherwise pick the awake arm with the highest mean.

    Simpler than AUER but lacks its principled confidence bonus; the
    paper excluded it in favour of AUER partly for stability.
    """

    explore_probability: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = derive_rng(self.seed, "bandit", "epsilon-greedy")

    def select(self, awake_actions: list[int], t: int) -> int:
        if not awake_actions:
            raise ValueError("no awake action to select")
        for action_id in awake_actions:
            self.ensure_arm(action_id)
        if self._rng.random() < self.explore_probability:
            choice = self._rng.choice(awake_actions)
        else:
            choice = max(awake_actions, key=lambda a: self.arms[a].mean_reward)
        self.last_score = self.arms[choice].mean_reward
        return choice

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_rng_state

        state = super().snapshot_state()
        state["rng"] = encode_rng_state(self._rng)
        return state

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_rng_state

        super().restore_state(state)
        self._rng.setstate(decode_rng_state(state["rng"]))


@dataclass
class ThompsonSamplingBandit(SleepingBandit):
    """Gaussian Thompson Sampling alternative (paper Appendix C).

    Samples a plausible mean reward per awake arm from
    N(R̄_a, scale² / (N_a + 1)) and picks the argmax.  Probabilistic —
    the paper preferred the deterministic AUER for crawl *stability*
    (same output across runs) and because priors are unavailable.
    """

    prior_scale: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = derive_rng(self.seed, "bandit", "thompson")

    def select(self, awake_actions: list[int], t: int) -> int:
        if not awake_actions:
            raise ValueError("no awake action to select")
        best_action = awake_actions[0]
        best_sample = -math.inf
        for action_id in awake_actions:
            self.ensure_arm(action_id)
            arm = self.arms[action_id]
            scale = self.prior_scale / math.sqrt(arm.n_selected + 1.0)
            sample = self._rng.gauss(arm.mean_reward, scale)
            if sample > best_sample:
                best_sample = sample
                best_action = action_id
        self.last_score = best_sample
        return best_action

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_rng_state

        state = super().snapshot_state()
        state["rng"] = encode_rng_state(self._rng)
        return state

    def restore_state(self, state: dict) -> None:
        from repro.checkpoint.codec import decode_rng_state

        super().restore_state(state)
        self._rng.setstate(decode_rng_state(state["rng"]))


def make_bandit(
    policy: str,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = 1e-6,
    seed: int = 0,
) -> SleepingBandit:
    """Bandit-policy factory: ``auer`` (the paper's choice, default),
    ``epsilon-greedy`` or ``thompson`` (the Appendix C alternatives)."""
    if policy == "auer":
        return SleepingBandit(alpha=alpha, epsilon=epsilon)
    if policy == "epsilon-greedy":
        return EpsilonGreedyBandit(alpha=alpha, epsilon=epsilon, seed=seed)
    if policy == "thompson":
        return ThompsonSamplingBandit(alpha=alpha, epsilon=epsilon, seed=seed)
    raise ValueError(
        f"unknown bandit policy: {policy!r} "
        "(pick auer, epsilon-greedy or thompson)"
    )
