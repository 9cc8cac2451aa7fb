"""Trace statistics used to calibrate and sanity-check synthetic traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .format import AvailabilityTrace

__all__ = ["TraceStats", "summarize_trace", "stable_system_size", "churn_events_per_hour"]


@dataclass(frozen=True)
class TraceStats:
    """Headline numbers for one availability trace."""

    node_count: int
    duration: float
    mean_availability: float
    median_session_length: float
    mean_session_length: float
    stable_size: float
    churn_per_hour: float
    n_longterm: int

    def churn_fraction_per_hour(self) -> float:
        """Join+leave events per hour as a fraction of the stable size."""
        if self.stable_size <= 0:
            return 0.0
        return self.churn_per_hour / self.stable_size


def stable_system_size(trace: AvailabilityTrace, samples: int = 48) -> float:
    """Mean alive count over *samples* evenly spaced instants."""
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    step = trace.duration / samples
    times = [step * (index + 0.5) for index in range(samples)]
    return sum(trace.alive_count_at(t) for t in times) / samples


def churn_events_per_hour(trace: AvailabilityTrace) -> float:
    """Leave events per hour (the paper's churn-rate convention).

    A "20 % per-hour churn rate" means leaves per hour equal to 20 % of the
    stable size, matched by an equal rejoin rate.
    """
    leaves = sum(len(node.sessions) for node in trace.nodes.values())
    hours = trace.duration / 3600.0
    return leaves / hours if hours > 0 else 0.0


def summarize_trace(trace: AvailabilityTrace, samples: int = 48) -> TraceStats:
    """Compute :class:`TraceStats` for *trace*."""
    availabilities: List[float] = []
    session_lengths: List[float] = []
    for node in trace.nodes.values():
        birth = node.birth
        if birth is None:
            continue
        lifetime_end = node.death if node.death is not None else trace.duration
        if lifetime_end > birth:
            availabilities.append(node.availability(birth, lifetime_end))
        session_lengths.extend(node.session_lengths())
    session_lengths.sort()
    mean_availability = (
        sum(availabilities) / len(availabilities) if availabilities else 0.0
    )
    median_session = _median(session_lengths)
    mean_session = (
        sum(session_lengths) / len(session_lengths) if session_lengths else 0.0
    )
    return TraceStats(
        node_count=len(trace),
        duration=trace.duration,
        mean_availability=mean_availability,
        median_session_length=median_session,
        mean_session_length=mean_session,
        stable_size=stable_system_size(trace, samples),
        churn_per_hour=churn_events_per_hour(trace),
        n_longterm=trace.born_before(trace.duration),
    )


def _median(sorted_values: List[float]) -> float:
    if not sorted_values:
        return 0.0
    mid = len(sorted_values) // 2
    if len(sorted_values) % 2 == 1:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0

