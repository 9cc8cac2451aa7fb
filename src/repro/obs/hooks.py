"""Cheap opt-in observability hooks for the simulator core.

Everything here is callback-gauge based: attaching an observer stores a
bound method in the registry and the observed object's hot path is
untouched — the values are read only when a snapshot is taken.  The
relation's scan counters and timer attach through
:meth:`repro.core.relation.MonitorRelation.observe`, which guards its hot
path behind a single ``is None`` check per extension call.
"""

from __future__ import annotations

from .registry import MetricsRegistry

__all__ = ["observe_simulator", "observe_condition"]


def observe_simulator(registry: MetricsRegistry, sim, prefix: str = "sim.engine"):
    """Register engine gauges: events processed, pending, heap compactions."""
    registry.gauge(f"{prefix}.events_processed", fn=lambda: sim.processed_events)
    registry.gauge(f"{prefix}.pending_events", fn=sim.pending_events)
    registry.gauge(f"{prefix}.cancelled_pending", fn=sim.cancelled_pending)
    registry.gauge(f"{prefix}.heap_compactions", fn=lambda: sim.heap_compactions)
    return registry


def observe_condition(
    registry: MetricsRegistry, condition, prefix: str = "sim.condition"
):
    """Register the consistency-condition hash-evaluation gauge."""
    registry.gauge(f"{prefix}.hash_evaluations", fn=lambda: condition.hash_evaluations)
    return registry

