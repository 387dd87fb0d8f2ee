"""Crawl frontier partitioned by action.

The frontier holds the discovered-but-unvisited HTML URLs.  The SB
crawler needs three operations, all O(1): add a URL under its action,
draw a uniformly random URL from a given action (Sec. 3.2: "our crawler
randomly chooses an unvisited link l ∈ a with equal probability"), and
know which actions are *awake* (still have unvisited links).

The global draw (``pop_random``) is weighted by pool size.  It used to
rebuild the (action, weight) lists on every call — O(#actions) per draw
— and now runs in O(log #actions) over a Fenwick tree of pool sizes
kept in pool-creation order.  The tree search consumes exactly one
``rng.random()`` like ``random.Random.choices`` did and resolves the
same prefix-sum inversion, so the sampled sequence is bit-for-bit
unchanged (asserted by ``tests/test_core_frontier.py``).
"""

from __future__ import annotations

import random


class _RandomPool:
    """Set with O(1) uniform sampling-without-replacement (swap-pop)."""

    def __init__(self) -> None:
        self._items: list[str] = []
        self._positions: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: str) -> bool:
        return item in self._positions

    def add(self, item: str) -> None:
        if item in self._positions:
            return
        self._positions[item] = len(self._items)
        self._items.append(item)

    def pop_random(self, rng: random.Random) -> str:
        index = rng.randrange(len(self._items))
        item = self._items[index]
        self._remove_at(index)
        return item

    def remove(self, item: str) -> bool:
        index = self._positions.get(item)
        if index is None:
            return False
        self._remove_at(index)
        return True

    def _remove_at(self, index: int) -> None:
        last = self._items[-1]
        item = self._items[index]
        self._items[index] = last
        self._positions[last] = index
        self._items.pop()
        del self._positions[item]


class _SizeFenwick:
    """Append-only Fenwick (binary indexed) tree over integer weights.

    Supports point updates and inverse-prefix-sum search in O(log n);
    appending a slot costs O(log n) amortised.  Used to sample a slot
    with probability proportional to its weight without materialising
    the cumulative-weight list on every draw.
    """

    def __init__(self) -> None:
        self._tree: list[int] = [0]  # 1-based; _tree[0] unused
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _prefix(self, index: int) -> int:
        """Sum of weights over slots [0, index) (``index`` 0-based, exclusive)."""
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total

    def append(self) -> int:
        """Add a new zero-weight slot; returns its 0-based index."""
        self._size += 1
        index = self._size
        # A fresh slot has weight 0, so its tree node is the sum of the
        # slots its node covers: prefix(index-1) - prefix(index - lowbit).
        self._tree.append(
            self._prefix(index - 1) - self._prefix(index - (index & -index))
        )
        return self._size - 1

    def add(self, slot: int, delta: int) -> None:
        """Add ``delta`` to the weight of 0-based ``slot``."""
        index = slot + 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & -index

    def find(self, u: float) -> int:
        """Smallest 0-based slot whose cumulative weight exceeds ``u``.

        Equivalent to ``bisect_right(cum_weights, u)`` over the dense
        cumulative-weight list: integer node sums compare exactly
        against the float ``u``, and zero-weight slots (which leave the
        cumulative sum flat) are never selected.  Returns ``size`` when
        ``u`` is at or beyond the total.
        """
        position = 0
        remaining = u
        step = 1
        while (step << 1) <= self._size:
            step <<= 1
        while step > 0:
            candidate = position + step
            if candidate <= self._size and self._tree[candidate] <= remaining:
                remaining -= self._tree[candidate]
                position = candidate
            step >>= 1
        return position  # 0-based: slots [0, position) have cum <= u


class Frontier:
    """Unvisited URLs grouped by the action of the link that found them."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pools: dict[int, _RandomPool] = {}
        self._url_action: dict[str, int] = {}
        self._total = 0
        #: slot of each action in the Fenwick tree (pool-creation order).
        self._slot_of: dict[int, int] = {}
        #: inverse mapping: slot index -> action id.
        self._slot_action: list[int] = []
        self._sizes = _SizeFenwick()
        self._n_awake = 0

    def __len__(self) -> int:
        return self._total

    def __contains__(self, url: str) -> bool:
        return url in self._url_action

    def add(self, url: str, action_id: int) -> None:
        """Register a newly discovered URL under its action."""
        if url in self._url_action:
            return
        pool = self._pools.get(action_id)
        if pool is None:
            pool = _RandomPool()
            self._pools[action_id] = pool
            self._slot_of[action_id] = self._sizes.append()
            self._slot_action.append(action_id)
        if len(pool) == 0:
            self._n_awake += 1
        pool.add(url)
        self._sizes.add(self._slot_of[action_id], 1)
        self._url_action[url] = action_id
        self._total += 1

    def pop_from_action(self, action_id: int) -> str:
        """Draw a uniformly random unvisited URL of ``action_id``."""
        pool = self._pools.get(action_id)
        if pool is None or len(pool) == 0:
            raise KeyError(f"action {action_id} is asleep (no unvisited links)")
        url = pool.pop_random(self._rng)
        self._account_removal(action_id, pool)
        del self._url_action[url]
        return url

    def pop_random(self) -> str:
        """Draw uniformly over *all* frontier URLs (used before any action
        exists, and by the RANDOM baseline).

        Pool sizes weight the draw so the global distribution is uniform
        over URLs; the Fenwick search replays ``random.choices``'s
        prefix-sum inversion in O(log #actions).
        """
        if self._total == 0:
            raise KeyError("frontier is empty")
        u = self._rng.random() * float(self._total)
        slot = self._sizes.find(u)
        if slot >= len(self._slot_action) or len(
            self._pools[self._slot_action[slot]]
        ) == 0:
            # Float round-up at the very top of the range (u == total):
            # clamp to the last awake pool, as bisect's hi bound did.
            slot = max(
                s for s, a in enumerate(self._slot_action)
                if len(self._pools[a]) > 0
            )
        return self.pop_from_action(self._slot_action[slot])

    def discard(self, url: str) -> bool:
        """Remove a URL discovered to be already visited (e.g. redirects)."""
        action_id = self._url_action.pop(url, None)
        if action_id is None:
            return False
        pool = self._pools[action_id]
        pool.remove(url)
        self._account_removal(action_id, pool)
        return True

    def _account_removal(self, action_id: int, pool: _RandomPool) -> None:
        self._sizes.add(self._slot_of[action_id], -1)
        self._total -= 1
        if len(pool) == 0:
            self._n_awake -= 1

    def awake_actions(self) -> list[int]:
        """Actions that still have unvisited links (1_a(t) = 1)."""
        return [a for a, p in self._pools.items() if len(p) > 0]

    # -- instrumentation (repro.obs) -------------------------------------

    def n_awake(self) -> int:
        """Number of awake actions (the ``actions_awake`` gauge)."""
        return self._n_awake

    def action_of(self, url: str) -> int | None:
        return self._url_action.get(url)

    def size_of(self, action_id: int) -> int:
        pool = self._pools.get(action_id)
        return len(pool) if pool is not None else 0

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        """Pools in slot (creation) order with their ``_items`` verbatim
        — swap-pop order is sampling order, so it must survive — plus
        the exact RNG stream position."""
        from repro.checkpoint.codec import encode_rng_state

        return {
            "rng": encode_rng_state(self._rng),
            "pools": [
                [action_id, list(self._pools[action_id]._items)]
                for action_id in self._slot_action
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild every derived structure (positions, Fenwick tree,
        awake count) from the pool lists; the RNG continues mid-stream."""
        from repro.checkpoint.codec import decode_rng_state

        self._pools = {}
        self._url_action = {}
        self._total = 0
        self._slot_of = {}
        self._slot_action = []
        self._sizes = _SizeFenwick()
        self._n_awake = 0
        for action_id, items in state["pools"]:
            pool = _RandomPool()
            self._pools[action_id] = pool
            self._slot_of[action_id] = self._sizes.append()
            self._slot_action.append(action_id)
            for url in items:
                pool.add(url)
                self._url_action[url] = action_id
            self._sizes.add(self._slot_of[action_id], len(items))
            self._total += len(items)
            if items:
                self._n_awake += 1
        self._rng.setstate(decode_rng_state(state["rng"]))
