"""The simple baseline crawlers: BFS, DFS and RANDOM (Sec. 4.3).

* BFS keeps the frontier as a FIFO queue: all pages at link distance ℓ
  are crawled before any page at distance ℓ' > ℓ.
* DFS keeps it as a LIFO stack (rarely used in practice — robot traps —
  but a meaningful discipline on deep portal sites).
* RANDOM pops a uniformly random frontier URL.

Each is only a frontier discipline: the crawl kernel fetches, follows
redirects, filters links and queues every accepted one.
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.base import Crawler


class BFSCrawler(Crawler):
    """Breadth-first exhaustive crawler (FIFO frontier)."""

    name = "BFS"
    checkpoint_kind = "baseline-crawl"

    def start(self, kernel) -> None:
        self._queue: deque[str] = deque()

    def push(self, kernel, url: str, ctx) -> None:
        self._queue.append(url)

    def has_next(self, kernel) -> bool:
        return bool(self._queue)

    def next_url(self, kernel) -> tuple[str, None]:
        return self._queue.popleft(), None

    def snapshot_policy(self, kernel) -> dict:
        return {"frontier": {"queue": list(self._queue)}}

    def restore_policy(self, kernel, components: dict) -> None:
        self._queue = deque(components["frontier"]["queue"])


class DFSCrawler(Crawler):
    """Depth-first crawler (LIFO frontier)."""

    name = "DFS"
    checkpoint_kind = "baseline-crawl"

    def start(self, kernel) -> None:
        self._stack: list[str] = []

    def push(self, kernel, url: str, ctx) -> None:
        self._stack.append(url)

    def has_next(self, kernel) -> bool:
        return bool(self._stack)

    def next_url(self, kernel) -> tuple[str, None]:
        return self._stack.pop(), None

    def snapshot_policy(self, kernel) -> dict:
        return {"frontier": {"stack": list(self._stack)}}

    def restore_policy(self, kernel, components: dict) -> None:
        self._stack = list(components["frontier"]["stack"])


class RandomCrawler(Crawler):
    """Uniform-random frontier crawler."""

    name = "RANDOM"
    checkpoint_kind = "baseline-crawl"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def start(self, kernel) -> None:
        self._rng = random.Random(self.seed)
        self._items: list[str] = []

    def push(self, kernel, url: str, ctx) -> None:
        self._items.append(url)

    def has_next(self, kernel) -> bool:
        return bool(self._items)

    def next_url(self, kernel) -> tuple[str, None]:
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop(), None

    def snapshot_policy(self, kernel) -> dict:
        from repro.checkpoint.codec import encode_rng_state

        return {"frontier": {"items": list(self._items),
                             "rng": encode_rng_state(self._rng)}}

    def restore_policy(self, kernel, components: dict) -> None:
        from repro.checkpoint.codec import decode_rng_state

        state = components["frontier"]
        self._items = list(state["items"])
        self._rng.setstate(decode_rng_state(state["rng"]))
