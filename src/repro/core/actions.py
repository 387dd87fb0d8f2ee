"""Action space: online clustering of tag paths (Algorithm 1).

An *action* is an evolving cluster of similar (projected) tag paths,
represented only by its centroid — the running mean of member vectors.
Mapping a link to an action is Algorithm 1: find the approximately
nearest centroid in the HNSW index; if its cosine similarity is at
least θ, join that action and update its centroid; otherwise create a
new singleton action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checkpoint.codec import Log
from repro.checkpoint.store import CheckpointError
from repro.core.hnsw import HnswIndex
from repro.core.tagpath import TagPathVectorizer


@dataclass
class ActionStats:
    """Per-action cluster metadata."""

    action_id: int
    n_members: int = 0
    #: a sample tag path, for interpretability analyses (Sec. 4.7)
    example_tag_path: str = ""


class ActionSpace:
    """Maintains the evolving set of actions and their centroids."""

    def __init__(
        self,
        vectorizer: TagPathVectorizer,
        theta: float = 0.75,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.vectorizer = vectorizer
        self.theta = theta
        self.index = HnswIndex(vectorizer.dim, seed=seed)
        self._stats: dict[int, ActionStats] = {}
        self._next_id = 0
        #: cache: identical tag-path strings always map to the same action,
        #: saving the ANN query for the (very common) repeated layouts.
        self._exact_cache: dict[str, int] = {}
        #: every tag path given to :meth:`assign`, cache hits included
        #: (they advance ``n_members``): the checkpointed state
        self._assigned: list[str] = []

    # -- accessors ---------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return self._next_id

    def stats(self, action_id: int) -> ActionStats:
        return self._stats[action_id]

    def centroid(self, action_id: int) -> np.ndarray:
        return self.index.vector(action_id)

    # -- Algorithm 1 ---------------------------------------------------------

    def assign(self, tag_path: str) -> int:
        """Map a link's tag path to an action (creating one if needed)."""
        self._assigned.append(tag_path)
        cached = self._exact_cache.get(tag_path)
        if cached is not None:
            stats = self._stats[cached]
            stats.n_members += 1
            # Adding an identical member does not move a centroid formed
            # from identical members only; with mixed members the drift is
            # below θ-resolution, so the exact cache stays sound.
            return cached

        projected = self.vectorizer.project(tag_path)
        nearest = self.index.search(projected, k=1)
        if nearest:
            action_id, similarity = nearest[0]
            if similarity >= self.theta:
                self._join(action_id, projected, tag_path)
                self._exact_cache[tag_path] = action_id
                return action_id
        action_id = self._create(projected, tag_path)
        self._exact_cache[tag_path] = action_id
        return action_id

    def _join(self, action_id: int, projected: np.ndarray, tag_path: str) -> None:
        stats = self._stats[action_id]
        centroid = self.index.vector(action_id)
        count = stats.n_members
        new_centroid = centroid + (projected - centroid) / (count + 1)
        self.index.update(action_id, new_centroid)
        stats.n_members = count + 1

    def _create(self, projected: np.ndarray, tag_path: str) -> int:
        action_id = self._next_id
        self._next_id += 1
        self.index.insert(action_id, projected)
        self._stats[action_id] = ActionStats(
            action_id=action_id, n_members=1, example_tag_path=tag_path
        )
        return action_id

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        """Every tag path :meth:`assign` was given, in order.  The space
        (vocabulary, HNSW graph and level RNG included) is a pure
        function of that list and the constructor arguments, and the
        list only grows, so the store journals its new tail."""
        return {"assigned": Log(self._assigned)}

    def restore_state(self, state: dict) -> None:
        """Replay the assigned tag paths into this freshly built space;
        a space or vectorizer that has already seen a path would replay
        onto the wrong state, so it raises."""
        if self._assigned or self.vectorizer.vocabulary_size:
            raise CheckpointError(
                "an action space restores only before its first assign"
            )
        for tag_path in state["assigned"]:
            self.assign(tag_path)
