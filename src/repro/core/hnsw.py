"""Hierarchical Navigable Small World (HNSW) index, from scratch.

The paper stores action centroids in an HNSW index [Malkov & Yashunin
2016], "chosen for its highly efficient updates of centroids as new tag
paths join" (Sec. 3.2, Algorithm 1).  This implementation supports the
three operations the crawler needs:

* ``insert(key, vector)`` — add a new centroid;
* ``update(key, vector)`` — move an existing centroid in place (links
  are kept; centroid drift under running means is small, so search
  quality is unaffected in practice);
* ``search(vector, k, ef)`` — approximate nearest neighbours under
  cosine distance.

Construction follows the original algorithm: geometric level sampling
with mL = 1/ln(M), greedy descent through the upper layers, beam search
(``ef``) at each level at and below the insertion level, and neighbour
selection by distance with degree bound M (2M at level 0).
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.utils.num import approx_zero


class HnswIndex:
    """Approximate nearest-neighbour index over cosine distance."""

    def __init__(
        self,
        dim: int,
        M: int = 8,
        ef_construction: int = 32,
        ef_search: int = 24,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.M = M
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._ml = 1.0 / math.log(M)
        self._rng = random.Random(seed)
        self._vectors: dict[int, np.ndarray] = {}
        self._norms: dict[int, float] = {}
        #: per key: list of neighbour lists, one per layer (0 = bottom).
        self._links: dict[int, list[list[int]]] = {}
        self._entry_point: int | None = None
        self._max_level = -1

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, key: int) -> bool:
        return key in self._vectors

    # -- distance --------------------------------------------------------

    def _distance(self, query: np.ndarray, query_norm: float, key: int) -> float:
        norm = self._norms[key]
        if approx_zero(norm) or approx_zero(query_norm):
            return 1.0
        return 1.0 - float(query @ self._vectors[key]) / (query_norm * norm)

    def cosine_similarity(self, query: np.ndarray, key: int) -> float:
        query_norm = float(np.linalg.norm(query))
        return 1.0 - self._distance(query, query_norm, key)

    # -- search ---------------------------------------------------------------

    def _search_layer(
        self,
        query: np.ndarray,
        query_norm: float,
        entry_points: list[int],
        ef: int,
        level: int,
    ) -> list[tuple[float, int]]:
        """Beam search in one layer; returns (distance, key) sorted ascending."""
        visited = set(entry_points)
        distance = self._distance
        links = self._links
        heappush, heappop = heapq.heappush, heapq.heappop
        candidates = [(distance(query, query_norm, key), key) for key in entry_points]
        heapq.heapify(candidates)
        # Max-heap of current best via negated distances.
        best = [(-d, key) for d, key in candidates]
        heapq.heapify(best)
        while candidates:
            dist, key = heappop(candidates)
            worst = -best[0][0]
            if dist > worst and len(best) >= ef:
                break
            for neighbour in links[key][level]:
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                d = distance(query, query_norm, neighbour)
                if len(best) < ef or d < -best[0][0]:
                    heappush(candidates, (d, neighbour))
                    heappush(best, (-d, neighbour))
                    if len(best) > ef:
                        heappop(best)
        return sorted((-negd, key) for negd, key in best)

    def search(self, query: np.ndarray, k: int = 1, ef: int | None = None
               ) -> list[tuple[int, float]]:
        """Return up to ``k`` (key, cosine_similarity) pairs, best first."""
        if self._entry_point is None:
            return []
        ef = max(ef or self.ef_search, k)
        query_norm = float(np.linalg.norm(query))
        entry = self._entry_point
        for level in range(self._max_level, 0, -1):
            entry = self._greedy_step(query, query_norm, entry, level)
        results = self._search_layer(query, query_norm, [entry], ef, 0)
        return [(key, 1.0 - dist) for dist, key in results[:k]]

    def _greedy_step(
        self, query: np.ndarray, query_norm: float, entry: int, level: int
    ) -> int:
        distance = self._distance
        links = self._links
        current = entry
        current_dist = distance(query, query_norm, current)
        improved = True
        while improved:
            improved = False
            for neighbour in links[current][level]:
                d = distance(query, query_norm, neighbour)
                if d < current_dist:
                    current, current_dist = neighbour, d
                    improved = True
        return current

    # -- construction -----------------------------------------------------

    def _select_neighbours(
        self, candidates: list[tuple[float, int]], max_links: int
    ) -> list[int]:
        return [key for _, key in sorted(candidates)[:max_links]]

    def insert(self, key: int, vector: np.ndarray) -> None:
        if key in self._vectors:
            raise KeyError(f"key already present: {key}")
        vector = np.asarray(vector, dtype=np.float64)
        level = int(-math.log(self._rng.random() + 1e-12) * self._ml)
        self._vectors[key] = vector
        self._norms[key] = float(np.linalg.norm(vector))
        self._links[key] = [[] for _ in range(level + 1)]

        if self._entry_point is None:
            self._entry_point = key
            self._max_level = level
            return

        query_norm = self._norms[key]
        entry = self._entry_point
        for layer in range(self._max_level, level, -1):
            entry = self._greedy_step(vector, query_norm, entry, layer)

        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(
                vector, query_norm, [entry], self.ef_construction, layer
            )
            max_links = self.M * 2 if layer == 0 else self.M
            neighbours = self._select_neighbours(candidates, max_links)
            self._links[key][layer] = list(neighbours)
            for neighbour in neighbours:
                links = self._links[neighbour][layer]
                links.append(key)
                if len(links) > max_links:
                    # Prune the worst link of the overflowing node.
                    pruned = self._select_neighbours(
                        [
                            (
                                self._distance(
                                    self._vectors[neighbour],
                                    self._norms[neighbour],
                                    other,
                                ),
                                other,
                            )
                            for other in links
                        ],
                        max_links,
                    )
                    self._links[neighbour][layer] = pruned
            entry = neighbours[0] if neighbours else entry

        if level > self._max_level:
            self._max_level = level
            self._entry_point = key

    def update(self, key: int, vector: np.ndarray) -> None:
        """Move an existing point (centroid drift); links are preserved."""
        if key not in self._vectors:
            raise KeyError(f"unknown key: {key}")
        vector = np.asarray(vector, dtype=np.float64)
        self._vectors[key] = vector
        self._norms[key] = float(np.linalg.norm(vector))

    def vector(self, key: int) -> np.ndarray:
        return self._vectors[key]
