"""Picklable per-run summary: the metric series the figures consume.

:class:`~repro.experiments.runner.SimulationResult` drags the whole live
object graph along (cluster, network, event queue) and therefore cannot
cross a process boundary or be cached to disk.  :class:`SimulationSummary`
is the flat extraction — plain lists and dicts of floats — carrying exactly
the series the paper's figures read, and it is the only home of their
accessors (discovery delays, the drop-top mean, the CDF, availability
ratios, fraction affected): a raw run goes through ``result.summary()``.

Summaries are JSON-serialisable and deterministic: the same configuration
always produces byte-identical :meth:`SimulationSummary.to_json` output,
whether the run executed in-process or in a worker process (wall-clock
timing is deliberately excluded from the serialised form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..metrics import stats

__all__ = ["SCHEMA_VERSION", "SimulationSummary", "summarize"]

#: Serialised-payload schema. Bump when a field is renamed, removed or
#: reinterpreted: readers reject stamps they don't know (the disk store
#: treats that as a warned miss and recomputes), instead of silently
#: loading an old-schema file as a default-valued summary. Purely
#: additive fields don't need a bump — unknown keys are dropped on read.
SCHEMA_VERSION = 1


@dataclass
class SimulationSummary:
    """Flat, process-portable record of one simulation run."""

    #: Identity: model key, system size, seed and display label.
    model: str = ""
    n: int = 0
    seed: int = 0
    label: str = ""
    #: Scalar run parameters (duration, warmup, rates ...).
    params: Dict[str, float] = field(default_factory=dict)
    #: Resolved AVMON protocol constants (k, cvs, protocol_period ...).
    avmon: Dict[str, float] = field(default_factory=dict)
    #: Monitor rank -> discovery delays across tracked control nodes.
    monitor_delays: Dict[int, List[float]] = field(default_factory=dict)
    control_count: int = 0
    undiscovered_count: int = 0
    computation_rates_control: List[float] = field(default_factory=list)
    computation_rates_all: List[float] = field(default_factory=list)
    memory_control: List[float] = field(default_factory=list)
    memory_all: List[float] = field(default_factory=list)
    bandwidth: List[float] = field(default_factory=list)
    useless_pings: List[float] = field(default_factory=list)
    #: ``[node, estimated availability, true availability]`` triples.
    availability_control: List[List[float]] = field(default_factory=list)
    availability_alive: List[List[float]] = field(default_factory=list)
    n_longterm: int = 0
    final_alive: int = 0
    events_processed: int = 0
    window_seconds: float = 0.0
    #: Wall-clock runtime; excluded from to_dict()/to_json() so serialised
    #: summaries are deterministic across machines and process counts.
    wall_seconds: float = 0.0

    # -- discovery (Figures 3-6, 13, 15) ----------------------------------

    def first_monitor_delays(self) -> List[float]:
        return list(self.monitor_delays.get(1, ()))

    def nth_monitor_delays(self, nth: int) -> List[float]:
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        return list(self.monitor_delays.get(nth, ()))

    def average_discovery_time(self, drop_top: int = 1) -> float:
        delays = sorted(self.first_monitor_delays())
        if drop_top > 0 and len(delays) > drop_top:
            delays = delays[:-drop_top]
        return stats.mean(delays)

    def discovery_cdf(self) -> List[Tuple[float, float]]:
        return stats.cdf_points(self.first_monitor_delays())

    def tracked_count(self) -> int:
        return self.control_count

    # -- computation / memory / bandwidth / pings --------------------------

    def computation_rates(self, control_only: bool = True) -> List[float]:
        if control_only:
            return list(self.computation_rates_control)
        return list(self.computation_rates_all)

    def memory_values(self, control_only: bool = True) -> List[float]:
        return list(self.memory_control if control_only else self.memory_all)

    def bandwidth_rates(self) -> List[float]:
        return list(self.bandwidth)

    def useless_ping_rates(self) -> List[float]:
        return list(self.useless_pings)

    # -- availability accuracy (Figures 17, 20) ----------------------------

    def availability_ratio_series(self) -> Dict[int, float]:
        return {
            int(node): estimate / truth
            for node, estimate, truth in self.availability_control
            if truth > 0
        }

    def fraction_affected(self, threshold: float = 0.2) -> float:
        audits = self.availability_alive
        if not audits:
            return 0.0
        affected = sum(
            1 for _, estimate, truth in audits if abs(estimate - truth) > threshold
        )
        return affected / len(audits)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready payload (deterministic: no wall-clock timing)."""
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "n": self.n,
            "seed": self.seed,
            "label": self.label,
            "params": dict(self.params),
            "avmon": dict(self.avmon),
            "monitor_delays": {
                str(rank): list(delays)
                for rank, delays in sorted(self.monitor_delays.items())
            },
            "control_count": self.control_count,
            "undiscovered_count": self.undiscovered_count,
            "computation_rates_control": list(self.computation_rates_control),
            "computation_rates_all": list(self.computation_rates_all),
            "memory_control": list(self.memory_control),
            "memory_all": list(self.memory_all),
            "bandwidth": list(self.bandwidth),
            "useless_pings": list(self.useless_pings),
            "availability_control": [list(row) for row in self.availability_control],
            "availability_alive": [list(row) for row in self.availability_alive],
            "n_longterm": self.n_longterm,
            "final_alive": self.final_alive,
            "events_processed": self.events_processed,
            "window_seconds": self.window_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationSummary":
        version = payload.get("schema", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported summary schema {version!r} "
                f"(this version reads schema {SCHEMA_VERSION})"
            )
        # Within a schema, unknown keys are dropped rather than rejected: a
        # store written by a newer version with extra series stays readable.
        known = {f.name for f in fields(cls)}
        data = {key: value for key, value in payload.items() if key in known}
        data["monitor_delays"] = {
            int(rank): list(delays)
            for rank, delays in data.get("monitor_delays", {}).items()
        }
        data.pop("wall_seconds", None)
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationSummary":
        return cls.from_dict(json.loads(text))


def summarize(result) -> SimulationSummary:
    """Extract a :class:`SimulationSummary` from a live ``SimulationResult``.

    Must run in the process that owns the result (it walks the cluster's
    node objects for the availability audit); the returned summary is then
    free to cross process boundaries.
    """
    config = result.config
    avmon = result.avmon_config
    audits_control = result.availability_audit(control_only=True)
    audits_alive = result.availability_audit(control_only=False, alive_only=True)
    return SimulationSummary(
        model=config.model_key,
        n=config.n,
        seed=config.seed,
        label=config.label,
        params={
            "duration": config.duration,
            "warmup": config.warmup,
            "control_fraction": config.control_fraction,
            "churn_per_hour": config.churn_per_hour,
            "birth_death_per_day": config.birth_death_per_day,
            "overreport_fraction": config.overreport_fraction,
            "sample_interval": config.sample_interval,
        },
        avmon={
            "n_expected": avmon.n_expected,
            "k": avmon.k,
            "cvs": avmon.cvs,
            "protocol_period": avmon.protocol_period,
            "monitoring_period": avmon.monitoring_period,
            "expected_memory_entries": avmon.expected_memory_entries,
            "enable_forgetful": avmon.enable_forgetful,
            "enable_pr2": avmon.enable_pr2,
        },
        monitor_delays=result.metrics.discovery.delays_by_rank(),
        control_count=result.metrics.discovery.tracked_count(),
        undiscovered_count=result.metrics.discovery.undiscovered_count(),
        computation_rates_control=result.computation_rates(control_only=True),
        computation_rates_all=result.computation_rates(control_only=False),
        memory_control=result.memory_values(control_only=True),
        memory_all=result.memory_values(control_only=False),
        bandwidth=result.bandwidth_rates(),
        useless_pings=result.useless_ping_rates(),
        availability_control=[
            [int(node), estimate, truth]
            for node, (estimate, truth) in sorted(audits_control.items())
        ],
        availability_alive=[
            [int(node), estimate, truth]
            for node, (estimate, truth) in sorted(audits_alive.items())
        ],
        n_longterm=result.n_longterm,
        final_alive=result.final_alive,
        events_processed=result.events_processed,
        window_seconds=result.window_seconds,
        wall_seconds=result.wall_seconds,
    )
