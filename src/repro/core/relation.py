"""Universe-wide monitor relation with incremental indexing.

During a coarse-view exchange (Figure 2) a node checks the consistency
condition over the cross product of two views — up to ``2·(cvs+2)²`` ordered
pairs, once per node per protocol period.  A naive simulation of a multi-hour
run therefore evaluates tens of millions of hashes.  Because the condition
for a fixed pair never changes, the simulator instead maintains, for every
node ``u`` in the id universe, the set

    ``TS_universe(u) = {v : H(u, v) <= K/N}``  (everyone ``u`` would monitor),

built lazily and extended incrementally as new ids are born.  A cross-product
check then reduces to a handful of small set intersections: ``u`` monitors
``v`` iff ``v ∈ TS_universe(u)``, so one direction answers both ends of the
relation (``PS(v)`` is ``TS`` transposed, and a caller wanting it checks
:meth:`~repro.core.condition.ConsistencyCondition.holds` directly).

The universe is kept as parallel arrays of ids and preconverted endpoint
bytes, and each set extension is one tight-loop scan
(:meth:`~repro.core.condition.ConsistencyCondition.scan_targets`) over an
array slice rather than a per-pair ``holds()`` call — at N=10,000 the
difference between a scan being hash-bound and being interpreter-bound.

Faithful cost accounting: the *protocol-level* number of condition
evaluations a real node performs in an exchange is computed in closed form by
:func:`count_cross_pairs` and charged to the node's computation counter, so
measured computation overhead (Figures 7, 8, 12) reflects the real protocol,
not the index.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Set

from .condition import ConsistencyCondition
from .hashing import NodeId, pack_endpoint

__all__ = ["MonitorRelation", "count_cross_pairs"]


def count_cross_pairs(view_a: Set[NodeId], view_b: Set[NodeId]) -> int:
    """Number of ordered pairs checked in one Figure-2 exchange.

    The protocol checks every ordered pair ``(u, v)``, ``u != v``, in
    ``(A×B) ∪ (B×A)``.  With ``t = |A ∩ B|`` the exact count is

        ``2·|A|·|B| − t² − t``

    because ``A×B ∩ B×A = (A∩B)×(A∩B)`` (``t²`` pairs double-counted) and the
    ``t`` diagonal pairs ``(u, u)`` are excluded.  Verified against a brute
    force in the property tests.
    """
    overlap = len(view_a & view_b)
    return 2 * len(view_a) * len(view_b) - overlap * overlap - overlap


class MonitorRelation:
    """Lazily materialised TS indexes over a growing id universe."""

    def __init__(self, condition: ConsistencyCondition) -> None:
        self.condition = condition
        self._universe: List[NodeId] = []
        #: pack_endpoint(id) for every universe entry, index-aligned.
        self._packed: List[bytes] = []
        self._known: Set[NodeId] = set()
        # Per-node ``[materialised set, universe index the scan reached]``
        # pairs; one dict probe answers both "what is known" and "is it
        # current".
        self._ts: Dict[NodeId, list] = {}
        # Opt-in observability: ``(scans counter, pairs counter, timer)`` or
        # None.  The guard is one identity check per *extension call* (not
        # per pair), so the disabled hot path pays ~nothing.
        self._obs: Optional[tuple] = None

    def observe(self, registry, prefix: str = "sim.relation") -> None:
        """Attach scan-kernel instrumentation to an obs registry.

        Registers deterministic counters for scan calls and pairs scanned
        plus a wall-clock histogram of scan-phase durations, and callback
        gauges for universe size and materialised index entries.
        """
        from ..obs.registry import WALL

        self._obs = (
            registry.counter(f"{prefix}.scans"),
            registry.counter(f"{prefix}.pairs_scanned"),
            registry.histogram(f"{prefix}.scan_seconds", kind=WALL),
        )
        registry.gauge(f"{prefix}.universe", fn=self.universe_size)
        registry.gauge(f"{prefix}.index_entries", fn=self.index_entries)

    # -- universe management -------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Register a (possibly newborn) id into the universe."""
        if node in self._known:
            return
        packed = pack_endpoint(node)  # an id that is no endpoint changes nothing
        self._known.add(node)
        self._universe.append(node)
        self._packed.append(packed)

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        known = self._known
        for node in nodes:
            if node not in known:
                self.add_node(node)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._known

    def universe_size(self) -> int:
        return len(self._universe)

    def index_entries(self) -> int:
        """Total materialised TS set entries (memory diagnostics)."""
        return sum(len(entry[0]) for entry in self._ts.values())

    # -- directed set queries -------------------------------------------------

    def targets_of(self, monitor: NodeId) -> Set[NodeId]:
        """``TS_universe(monitor)``: every known id *monitor* would watch.

        The returned set is owned by the relation; callers must not mutate
        it.  It grows automatically as the universe grows.
        """
        entry = self._ts.get(monitor)
        if entry is not None and entry[1] == len(self._universe):
            return entry[0]
        return self._extend_targets(monitor, entry)

    def _extend_targets(self, monitor: NodeId, entry) -> Set[NodeId]:
        if entry is None:
            self._require_known(monitor)
            entry = self._ts[monitor] = [set(), 0]
        targets = entry[0]
        total = len(self._universe)
        obs = self._obs
        if obs is None:
            self.condition.scan_targets(
                monitor, self._universe, self._packed, entry[1], total, targets.add
            )
        else:
            started = perf_counter()
            self.condition.scan_targets(
                monitor, self._universe, self._packed, entry[1], total, targets.add
            )
            obs[0].inc()
            obs[1].inc(total - entry[1])
            obs[2].observe(perf_counter() - started)
        entry[1] = total
        return targets

    def find_matches(self, view_a: Set[NodeId], view_b: Set[NodeId]):
        """All ordered pairs ``(u, v)`` with ``u ∈ PS(v)`` found by one exchange.

        Mirrors the Figure-2 check over ``(A×B) ∪ (B×A)`` minus the diagonal;
        each returned pair means "``u`` monitors ``v``" and corresponds to one
        ``NOTIFY(u, v)``.
        """
        matches = set()
        add = matches.add
        ts = self._ts
        extend = self._extend_targets
        total = len(self._universe)
        for u in view_a:
            # Inline warm-path targets_of: one dict probe per view member.
            entry = ts.get(u)
            if entry is not None and entry[1] == total:
                targets = entry[0]
            else:
                targets = extend(u, entry)
            for v in view_b & targets:
                add((u, v))  # u is never in targets (self pairs skipped)
        for u in view_b:
            entry = ts.get(u)
            if entry is not None and entry[1] == total:
                targets = entry[0]
            else:
                targets = extend(u, entry)
            for v in view_a & targets:
                add((u, v))
        return matches

    def _require_known(self, node: NodeId) -> None:
        if node not in self._known:
            raise KeyError(f"node {node} is not in the relation universe")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MonitorRelation(universe={len(self._universe)}, "
            f"condition={self.condition!r})"
        )
