"""The AVMON consistency condition (Section 3.1).

Two nodes are related as ``u ∈ PS(v)`` (``u`` monitors ``v``) if and only if

    ``H(u, v) <= K / N``

where ``K`` is a small constant (the expected pinging-set size) and ``N`` is
the expected stable system size.  The relationship is *consistent* (it never
changes while ``K`` and ``N`` are fixed), *verifiable* (any third node can
recompute it), and *random* (``H`` behaves uniformly).

:class:`ConsistencyCondition` is the object every component shares: protocol
nodes use it to re-check NOTIFY messages, third parties use it to audit
reported monitors, and the discovery relation (:mod:`repro.core.relation`)
builds its indexes on top of it.

Evaluation is integer-domain: every pair hash derives from a 64-bit integer
``u`` via ``u / 2**64``, so ``H(u, v) <= K/N`` is decided by comparing the
raw integer against :attr:`ConsistencyCondition.bound` — the exact integer
boundary of the float comparison (:func:`repro.core.hashing.
unit_threshold_bound`) — with no float division on the hot path.  The result
is bit-for-bit identical to comparing ``hash_pair(u, v) <= threshold``; the
property suite proves the equivalence exhaustively.

Earlier versions memoised each ordered pair's verdict in a dict.  That memo
was O(population²) memory — the reason N=10,000 runs died — and a dict probe
plus tuple allocation costs about as much as recomputing a non-cryptographic
hash, so evaluations are now always computed.  The number of hash
evaluations performed is still tracked for cost accounting.
"""

from __future__ import annotations

from .hashing import NodeId, PairHasher, unit_threshold_bound

__all__ = ["ConsistencyCondition"]


class ConsistencyCondition:
    """Evaluates ``H(u, v) <= K/N`` for ordered node pairs."""

    __slots__ = ("k", "n", "threshold", "bound", "_hasher")

    def __init__(self, k: int, n: int, hash_algorithm: str = "md5") -> None:
        if k <= 0:
            raise ValueError(f"K must be positive, got {k}")
        if n <= 0:
            raise ValueError(f"N must be positive, got {n}")
        if k > n:
            raise ValueError(f"K ({k}) must not exceed N ({n})")
        self.k = k
        self.n = n
        #: The probability that an ordered pair is in the monitoring relation.
        self.threshold = k / n
        #: Largest raw 64-bit hash value satisfying the condition; comparing
        #: against it is exactly equivalent to the float comparison.
        self.bound = unit_threshold_bound(self.threshold)
        self._hasher = PairHasher(hash_algorithm)

    @property
    def hash_algorithm(self) -> str:
        """Name of the underlying pair-hash algorithm."""
        return self._hasher.algorithm

    @property
    def hash_evaluations(self) -> int:
        """Number of pair hashes computed so far (single-pair and scans)."""
        return self._hasher.evaluations

    def holds(self, monitor: NodeId, target: NodeId) -> bool:
        """True iff ``monitor ∈ PS(target)``, i.e. *monitor* monitors *target*.

        The pair is ordered: ``holds(u, v)`` and ``holds(v, u)`` are
        independent relations (``u`` may monitor ``v`` without the reverse).
        """
        if monitor == target:
            # A node never monitors itself; self-reporting is exactly what
            # the scheme is designed to rule out (Section 1, goal 3a).
            return False
        return self._hasher.pair_u64(monitor, target) <= self.bound

    # -- batch evaluation ---------------------------------------------------

    def scan_targets(self, monitor, ids, packed, start, stop, emit) -> None:
        """Emit every id in ``ids[start:stop]`` that *monitor* would watch.

        Tight-loop equivalent of ``holds(monitor, v)`` over a universe
        slice; ``packed`` carries the ids' preconverted endpoints (see
        :meth:`repro.core.hashing.PairHasher.scan_targets`).
        """
        self._hasher.scan_targets(monitor, ids, packed, start, stop, self.bound, emit)

    def is_monitor_of(self, candidate: NodeId, target: NodeId) -> bool:
        """Alias of :meth:`holds`: is *candidate* in ``PS(target)``?"""
        return self.holds(candidate, target)

    def verify_report(self, target: NodeId, reported_monitors) -> bool:
        """Third-party verification used by the "l out of K" policy.

        Returns True iff every node in *reported_monitors* genuinely
        satisfies the consistency condition for *target*.  This is what makes
        monitor reports unforgeable (Section 3.3): a selfish node cannot
        slip a colluder into its report because any recipient runs this
        check.
        """
        return all(self.holds(monitor, target) for monitor in reported_monitors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConsistencyCondition(k={self.k}, n={self.n}, "
            f"algorithm={self.hash_algorithm!r})"
        )
