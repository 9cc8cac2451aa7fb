"""Unified observability layer: metrics registry + structured event journal.

``repro.obs`` is the single emission surface for every subsystem — the
simulator engine, the fleet orchestrator, the store daemon, and the
serving tier all report through a :class:`MetricsRegistry` and/or a
:class:`Journal`.  The registry structurally separates *deterministic*
series (byte-equal across identical seeded runs, CI-gateable) from
*wall-clock* series (latencies, durations), and the journal is JSONL
with span support, timestamped from whatever clock the fabric runs on.
"""

from .journal import (
    JOURNAL_ENV,
    NULL_JOURNAL,
    Journal,
    NullJournal,
    journal_from_env,
    read_events,
    render_event,
    summarize_events,
    tail_events,
)
from .hooks import observe_condition, observe_simulator
from .registry import (
    DETERMINISTIC,
    WALL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "DETERMINISTIC",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "Journal",
    "NullJournal",
    "NULL_JOURNAL",
    "JOURNAL_ENV",
    "journal_from_env",
    "read_events",
    "tail_events",
    "summarize_events",
    "render_event",
    "observe_simulator",
    "observe_condition",
]
