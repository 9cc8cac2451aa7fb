"""Availability-trace data model.

A trace records, for every node, the sessions during which it was alive,
plus an optional death time after which it never returns.  Traces drive the
simulator's churn (classes (II) and (III) of Section 5: PlanetLab and
Overnet) and are what the synthetic generators in this package produce.

Invariants (validated on construction, property-tested in the suite):

* sessions are chronologically sorted and strictly non-overlapping,
* every session has positive length and lies within ``[0, duration]``,
* a node's death (if any) is no earlier than its last session's end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Session", "NodeTrace", "AvailabilityTrace", "TraceEvent"]


@dataclass(frozen=True)
class Session:
    """One contiguous up-interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"session start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"session end ({self.end}) must exceed start ({self.start})"
            )

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    def overlap(self, window_start: float, window_end: float) -> float:
        """Length of intersection with ``[window_start, window_end)``."""
        return max(0.0, min(self.end, window_end) - max(self.start, window_start))


@dataclass(frozen=True)
class TraceEvent:
    """One churn event: ``kind`` is ``"join"`` or ``"leave"``."""

    time: float
    kind: str
    node_id: int


class NodeTrace:
    """All sessions of one node, plus optional death."""

    __slots__ = ("node_id", "sessions", "death")

    def __init__(
        self,
        node_id: int,
        sessions: Iterable[Session],
        death: Optional[float] = None,
    ) -> None:
        ordered = tuple(sorted(sessions, key=lambda s: s.start))
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ValueError(
                    f"node {node_id}: sessions overlap "
                    f"([{earlier.start}, {earlier.end}) and "
                    f"[{later.start}, {later.end}))"
                )
        if death is not None and ordered and death < ordered[-1].end:
            raise ValueError(
                f"node {node_id}: death ({death}) precedes last session end "
                f"({ordered[-1].end})"
            )
        self.node_id = node_id
        self.sessions = ordered
        self.death = death

    @property
    def birth(self) -> Optional[float]:
        """Time of first appearance (None if the node never shows up)."""
        return self.sessions[0].start if self.sessions else None

    def alive_at(self, time: float) -> bool:
        for session in self.sessions:
            if session.contains(time):
                return True
            if session.start > time:
                return False
        return False

    def uptime(self, window_start: float, window_end: float) -> float:
        """Total up-time within ``[window_start, window_end)``."""
        if window_end < window_start:
            raise ValueError(
                f"window end ({window_end}) must be >= start ({window_start})"
            )
        return sum(s.overlap(window_start, window_end) for s in self.sessions)

    def availability(self, window_start: float, window_end: float) -> float:
        """Fraction of ``[window_start, window_end)`` the node was up."""
        length = window_end - window_start
        if length <= 0:
            return 0.0
        return self.uptime(window_start, window_end) / length

    def session_lengths(self) -> Tuple[float, ...]:
        return tuple(s.length for s in self.sessions)


class AvailabilityTrace:
    """A complete trace: every node's sessions over ``[0, duration]``."""

    def __init__(self, duration: float, nodes: Iterable[NodeTrace]) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.duration = duration
        self.nodes: Dict[int, NodeTrace] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            if node.sessions and node.sessions[-1].end > duration + 1e-9:
                raise ValueError(
                    f"node {node.node_id}: session ends at "
                    f"{node.sessions[-1].end}, beyond duration {duration}"
                )
            self.nodes[node.node_id] = node

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node(self, node_id: int) -> NodeTrace:
        return self.nodes[node_id]

    def alive_count_at(self, time: float) -> int:
        return sum(1 for node in self.nodes.values() if node.alive_at(time))

    def events(self) -> List[TraceEvent]:
        """All join/leave events, chronologically sorted (FIFO on ties)."""
        out: List[TraceEvent] = []
        for node in self.nodes.values():
            for session in node.sessions:
                out.append(TraceEvent(session.start, "join", node.node_id))
                out.append(TraceEvent(session.end, "leave", node.node_id))
        out.sort(key=lambda e: (e.time, e.kind, e.node_id))
        return out

    def born_before(self, time: float) -> int:
        """Number of distinct nodes whose first session starts before *time*
        (the paper's ``N_longterm``)."""
        return sum(
            1
            for node in self.nodes.values()
            if node.birth is not None and node.birth <= time
        )

    def content_hash(self) -> str:
        """Stable digest of the full trace content (cached after first call).

        Two traces share a hash iff every node's sessions and death agree —
        the property simulation caches key on, where shallow fingerprints
        like ``(len, duration)`` collide across seeds and generators.
        """
        cached = getattr(self, "_content_hash", None)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(self.duration).encode())
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            digest.update(f"|{node_id};{node.death!r}".encode())
            for session in node.sessions:
                digest.update(f";{session.start!r},{session.end!r}".encode())
        self._content_hash = digest.hexdigest()
        return self._content_hash

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "duration": self.duration,
            "nodes": [
                {
                    "node_id": node.node_id,
                    "death": node.death,
                    "sessions": [[s.start, s.end] for s in node.sessions],
                }
                for node in self.nodes.values()
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "AvailabilityTrace":
        payload = json.loads(text)
        nodes = [
            NodeTrace(
                entry["node_id"],
                [Session(start, end) for start, end in entry["sessions"]],
                death=entry.get("death"),
            )
            for entry in payload["nodes"]
        ]
        return cls(payload["duration"], nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvailabilityTrace(nodes={len(self.nodes)}, "
            f"duration={self.duration})"
        )
