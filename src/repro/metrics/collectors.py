"""Metric collectors for the Section-5 experiments.

The :class:`MetricsHub` implements the node-facing
:class:`~repro.core.node.MetricsSink` interface and fans events out to the
individual collectors.  Collection can be *armed* at the end of the warm-up
window, so rates (computations/s, bandwidth, useless pings) cover only the
measurement window — the paper measures after a one-hour warm-up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from ..core.hashing import NodeId

__all__ = [
    "DiscoveryTimeCollector",
    "ComputationCollector",
    "PingActivityCollector",
    "MetricsHub",
]


class DiscoveryTimeCollector:
    """Times from a tracked node's join to its 1st..Lth monitor discovery."""

    def __init__(self) -> None:
        self._join_time: Dict[NodeId, float] = {}
        #: node -> {ps_size: discovery delay from join}
        self._nth_delay: Dict[NodeId, Dict[int, float]] = {}

    def track(self, node: NodeId, join_time: float) -> None:
        """Start tracking *node* (a control-group member) from *join_time*."""
        if node not in self._join_time:
            self._join_time[node] = join_time
            self._nth_delay[node] = {}

    def tracked_count(self) -> int:
        return len(self._join_time)

    def on_monitor_discovered(self, node: NodeId, time: float, ps_size: int) -> None:
        joined = self._join_time.get(node)
        if joined is None:
            return
        delays = self._nth_delay[node]
        if ps_size not in delays:
            delays[ps_size] = max(0.0, time - joined)

    def delays_by_rank(self) -> Dict[int, List[float]]:
        """All delays grouped by monitor rank: ``{nth: [delay, ...]}``.

        Per-rank lists are in tracked-node insertion order, so summaries
        built from this are reproducible.  The figure accessors over these
        delays (first/nth delays, the drop-top mean, the CDF) live on
        :class:`~repro.experiments.summary.SimulationSummary`.
        """
        out: Dict[int, List[float]] = {}
        for delays in self._nth_delay.values():
            for rank, value in delays.items():
                out.setdefault(rank, []).append(value)
        return {rank: out[rank] for rank in sorted(out)}

    def undiscovered_count(self) -> int:
        """Tracked nodes that never discovered any monitor."""
        return sum(1 for delays in self._nth_delay.values() if 1 not in delays)


class ComputationCollector:
    """Per-node consistency-condition evaluation counts over the window."""

    def __init__(self) -> None:
        self._counts: Dict[NodeId, int] = defaultdict(int)

    def on_computations(self, node: NodeId, count: int) -> None:
        self._counts[node] += count

    def total(self, node: NodeId) -> int:
        return self._counts.get(node, 0)


class PingActivityCollector:
    """Monitoring-ping activity: useless pings (sent to absent nodes)."""

    def __init__(self) -> None:
        self._useless: Dict[NodeId, int] = defaultdict(int)

    def on_monitor_ping_sent(self, monitor: NodeId, useless: bool) -> None:
        if useless:
            self._useless[monitor] += 1

    def useless_total(self, node: NodeId) -> int:
        return self._useless.get(node, 0)


class MetricsHub:
    """Fan-out sink wired into every node; armed after warm-up.

    Discovery tracking is always on (control nodes join exactly when the
    measurement starts), while *rate* metrics (computations, pings) only
    accumulate once :meth:`arm` has been called.
    """

    def __init__(self) -> None:
        self.discovery = DiscoveryTimeCollector()
        self.computation = ComputationCollector()
        self.pings = PingActivityCollector()
        self.armed = False
        self.armed_at: Optional[float] = None
        #: Monitor -> targets discovered (for end-of-run availability audits).
        self.monitor_targets: Dict[NodeId, Set[NodeId]] = defaultdict(set)

    def arm(self, now: float) -> None:
        """Begin accumulating rate metrics (call at warm-up end)."""
        self.armed = True
        self.armed_at = now

    # -- MetricsSink interface -------------------------------------------

    def on_monitor_discovered(
        self, target: NodeId, monitor: NodeId, time: float, ps_size: int
    ) -> None:
        self.discovery.on_monitor_discovered(target, time, ps_size)

    def on_target_discovered(self, monitor: NodeId, target: NodeId, time: float) -> None:
        self.monitor_targets[monitor].add(target)

    def on_computations(self, node: NodeId, count: int) -> None:
        if self.armed:
            self.computation.on_computations(node, count)

    def on_monitor_ping_sent(self, monitor: NodeId, target: NodeId, useless: bool) -> None:
        if self.armed:
            self.pings.on_monitor_ping_sent(monitor, useless)
