"""FOCUSED: classic focused crawling adapted to target retrieval (Sec. 4.3).

Represents early focused crawlers [Chakrabarti et al. 1999; Diligenti
et al. 2000]: a logistic-regression link classifier estimates the
probability that a hyperlink leads to a target, and the frontier is a
priority queue ordered by that estimate.  Features follow standard
focused-crawler practice: the (approximate) depth of the source page, a
character 2-gram BoW of the URL and one of the link's anchor text.
The model is retrained periodically on pages already crawled, at no
extra HTTP cost.  Topic-oriented features are intentionally excluded.
"""

from __future__ import annotations

import heapq

from repro.core.base import Crawler
from repro.core.url_classifier import UrlClass
from repro.ml.features import (
    HashedVector,
    decode_vector,
    encode_vector,
    hashed_bow,
    merge_vectors,
)

_FEATURE_DIM = 1 << 14


class FocusedCrawler(Crawler):
    """Priority-frontier crawler driven by an online link classifier."""

    name = "FOCUSED"
    checkpoint_kind = "focused-crawl"

    def __init__(self, retrain_every: int = 50, seed: int = 0) -> None:
        self.retrain_every = retrain_every
        self.seed = seed

    # -- features --------------------------------------------------------

    def _features(self, url: str, anchor: str, depth: int) -> HashedVector:
        parts = [
            hashed_bow(url, n=2, dim=_FEATURE_DIM, seed=11),
            hashed_bow(f"depth:{min(depth, 30)}", n=8, dim=_FEATURE_DIM, seed=13),
        ]
        if anchor:
            parts.append(hashed_bow(anchor, n=2, dim=_FEATURE_DIM, seed=12))
        return merge_vectors(parts)

    # -- frontier discipline -----------------------------------------------

    def start(self, kernel) -> None:
        from repro.ml.linear import LogisticRegressionSGD

        self._heap: list[tuple[float, int, str]] = []
        self._counter = 0
        self._model = LogisticRegressionSGD(_FEATURE_DIM, seed=self.seed)
        self._pending_features: dict[str, HashedVector] = {}
        self._batch_x: list[HashedVector] = []
        self._batch_y: list[int] = []
        self._fetched = 0
        #: approximate link depth of each queued URL (a feature)
        self._depths: dict[str, int] = {kernel.env.root_url: 0}

    def push(self, kernel, url: str, ctx) -> None:
        self._push(url, "", self._depths.get(url, 0))

    def on_link(self, kernel, link, source: str, parsed) -> bool:
        depth = self._depths.get(source, 0) + 1
        self._depths[link.url] = depth
        self._push(link.url, link.anchor, depth)
        return False

    def _push(self, url: str, anchor: str, depth: int) -> None:
        features = self._features(url, anchor, depth)
        self._pending_features[url] = features
        score = self._model.predict_proba(features) if self._model.n_updates else 0.5
        self._counter += 1
        heapq.heappush(self._heap, (-score, self._counter, url))

    def has_next(self, kernel) -> bool:
        return bool(self._heap)

    def next_url(self, kernel) -> tuple[str, None]:
        return heapq.heappop(self._heap)[2], None

    # -- learning ------------------------------------------------------------

    def on_response(self, kernel, url: str, ctx, kind: UrlClass, parsed) -> None:
        features = self._pending_features.pop(url, None)
        if features is None:
            return
        self._batch_x.append(features)
        self._batch_y.append(1 if kind is UrlClass.TARGET else 0)
        self._fetched += 1
        if self._fetched % self.retrain_every == 0 and self._batch_x:
            self._model.partial_fit(self._batch_x, self._batch_y)
            self._batch_x.clear()
            self._batch_y.clear()

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_policy(self, kernel) -> dict:
        return {
            "frontier": {
                "heap": [list(entry) for entry in self._heap],
                "counter": self._counter,
                "pending": [[url, encode_vector(v)]
                            for url, v in self._pending_features.items()],
                "depths": dict(self._depths),
            },
            "model": self._model.snapshot_state(),
            "batch": {
                "x": [encode_vector(v) for v in self._batch_x],
                "y": list(self._batch_y),
                "fetched": self._fetched,
            },
        }

    def restore_policy(self, kernel, components: dict) -> None:
        frontier = components["frontier"]
        self._heap = [tuple(entry) for entry in frontier["heap"]]
        self._counter = frontier["counter"]
        self._pending_features = {
            url: decode_vector(v) for url, v in frontier["pending"]
        }
        self._depths = dict(frontier["depths"])
        self._model.restore_state(components["model"])
        batch = components["batch"]
        self._batch_x = [decode_vector(v) for v in batch["x"]]
        self._batch_y = list(batch["y"])
        self._fetched = batch["fetched"]
