"""The coarse view: a bounded random neighbour set (Section 3.2).

Each node keeps at most ``cvs`` other node ids.  The view supports O(1)
membership tests, O(1) uniform random choice, and the Figure-2 reshuffle
(select ``cvs`` random entries from the union of the old view, the fetched
view and the exchange partner).

Invariants (enforced here, property-tested in the suite):

* never contains the owner id,
* never contains duplicates,
* never exceeds its capacity.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .hashing import NodeId

__all__ = ["CoarseView"]


class CoarseView:
    """Bounded random set of neighbour ids with O(1) sample/removal."""

    __slots__ = ("owner", "capacity", "_items", "_index")

    def __init__(self, owner: NodeId, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.owner = owner
        self.capacity = capacity
        self._items: List[NodeId] = []
        self._index: Dict[NodeId, int] = {}

    # -- basic container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._items)

    def entries(self) -> Tuple[NodeId, ...]:
        """Snapshot of the current view (order is internal, not meaningful)."""
        return tuple(self._items)

    def as_set(self) -> set:
        """Snapshot as a set (handy for the Figure-2 cross-product check)."""
        return set(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    # -- mutation --------------------------------------------------------------

    def add(self, node: NodeId, rng: Optional[random.Random] = None) -> bool:
        """Insert *node*; returns True if the view changed.

        When the view is full the insert evicts a uniformly random victim
        (used by JOIN handling and PR2, which must make room).  The owner id
        and duplicates are rejected.
        """
        if node == self.owner or node in self._index:
            return False
        if len(self._items) >= self.capacity:
            victim_rng = rng if rng is not None else random
            self._remove_at(victim_rng.randrange(len(self._items)))
        self._index[node] = len(self._items)
        self._items.append(node)
        return True

    def remove(self, node: NodeId) -> bool:
        """Remove *node*; returns True if it was present."""
        position = self._index.get(node)
        if position is None:
            return False
        self._remove_at(position)
        return True

    def _remove_at(self, position: int) -> None:
        # Swap-remove to keep sampling O(1).
        last = self._items[-1]
        victim = self._items[position]
        self._items[position] = last
        self._index[last] = position
        self._items.pop()
        del self._index[victim]

    def clear(self) -> None:
        self._items.clear()
        self._index.clear()

    # -- protocol operations -----------------------------------------------------

    def random_choice(self, rng: random.Random) -> Optional[NodeId]:
        """Uniform random entry, or None when empty."""
        if not self._items:
            return None
        return self._items[rng.randrange(len(self._items))]

    def random_choice_excluding(
        self, rng: random.Random, excluded: NodeId
    ) -> Optional[NodeId]:
        """Uniform random entry different from *excluded* (None if impossible)."""
        if not self._items:
            return None
        if len(self._items) == 1 and self._items[0] == excluded:
            return None
        while True:
            candidate = self._items[rng.randrange(len(self._items))]
            if candidate != excluded:
                return candidate

    def reshuffle(self, candidates: Iterable[NodeId], rng: random.Random) -> None:
        """Figure-2 view refresh.

        Replaces the view with ``min(cvs, |pool|)`` ids sampled uniformly
        without replacement from ``pool = current ∪ candidates − {owner}``.
        """
        pool = set(self._items)
        pool.update(candidates)
        pool.discard(self.owner)
        selected = (
            list(pool)
            if len(pool) <= self.capacity
            else rng.sample(sorted(pool), self.capacity)
        )
        self.clear()
        for node in selected:
            self._index[node] = len(self._items)
            self._items.append(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoarseView(owner={self.owner}, size={len(self._items)}/"
            f"{self.capacity})"
        )
