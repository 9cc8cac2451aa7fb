"""What one live run measured: pure functions of the scraped statuses.

:func:`audit_pairs` checks the reported PS/TS entries against the
consistency condition; :func:`build_live_report` folds the scrape into the
standard :class:`~repro.experiments.summary.SimulationSummary`, so live
runs flow through the same store and figure machinery as simulated ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.condition import ConsistencyCondition
from ..core.hashing import NodeId
from ..experiments.summary import SimulationSummary
from ..metrics import stats
from .config import LiveConfig
from .control import StatusReply

__all__ = ["LiveReport", "audit_pairs", "build_live_report"]


def audit_pairs(
    condition: ConsistencyCondition,
    statuses: Mapping[NodeId, StatusReply],
    victims: Sequence[NodeId] = (),
) -> Tuple[int, int, int, Optional[float]]:
    """(discovered, expected, violations, victim_recovery) over the scraped
    population, in one pass.

    Expected: every ordered pair ``(monitor, target)`` of *scraped* nodes
    satisfying the consistency condition.  Discovered: the pair's target
    reports the monitor in its PS.  Violations: reported PS/TS entries
    that fail the condition — the scheme's verifiability means any party
    can run this audit.  Victim recovery: the discovered share of the
    expected pairs with a crash victim at either end (None when there are
    no victims or no such pairs).
    """
    victims = set(victims)
    population = sorted(statuses)
    expected = discovered = violations = 0
    victim_expected = victim_discovered = 0
    holds = condition.holds
    for target in population:
        reported = {m for m, _t in statuses[target].ps}
        target_is_victim = target in victims
        for monitor in population:
            if monitor == target or not holds(monitor, target):
                continue
            found = monitor in reported
            expected += 1
            discovered += found
            if target_is_victim or monitor in victims:
                victim_expected += 1
                victim_discovered += found
        violations += sum(1 for m in reported if not holds(m, target))
        violations += sum(
            1 for t in statuses[target].ts if not holds(target, t)
        )
    recovery = victim_discovered / victim_expected if victim_expected else None
    return discovered, expected, violations, recovery


@dataclass
class LiveReport:
    """Everything one live run measured, plus the persisted summary."""

    config: LiveConfig
    summary: SimulationSummary
    #: Discovered ÷ expected monitor relationships over the final overlay.
    discovery_ratio: float
    discovered_pairs: int
    expected_pairs: int
    #: Reported PS/TS entries failing the consistency condition (should be 0).
    violations: int
    crashes: int
    crash_victims: Tuple[NodeId, ...]
    #: Discovered ÷ expected relationships involving crash victims.
    victim_recovery: Optional[float]
    final_alive: int
    elapsed: float
    store_path: Optional[str] = None
    statuses: Dict[NodeId, StatusReply] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": self.summary.to_dict(),
            "discovery_ratio": self.discovery_ratio,
            "discovered_pairs": self.discovered_pairs,
            "expected_pairs": self.expected_pairs,
            "violations": self.violations,
            "crashes": self.crashes,
            "crash_victims": list(self.crash_victims),
            "victim_recovery": self.victim_recovery,
            "final_alive": self.final_alive,
            "elapsed": self.elapsed,
            "store_path": self.store_path,
        }


def build_live_report(
    config: LiveConfig,
    condition: ConsistencyCondition,
    statuses: Mapping[NodeId, StatusReply],
    *,
    crash_victims: Sequence[NodeId],
    final_alive: int,
    elapsed: float,
    join_times: Mapping[NodeId, float],
    life_seconds: Callable[[NodeId], float],
    memory_series: Mapping[NodeId, List[float]],
    n_longterm: int,
) -> LiveReport:
    """Audit + summarise one overlay run (any fabric) into a report.

    The summary folds the scraped node states into the standard shape.
    Nodes absent from *join_times* are skipped there: they answered a
    probe but were not deployed by this harness (an operator hand-ran
    them), so there is no spawn/uptime bookkeeping to rate their counters
    with.
    """
    discovered, expected, violations, recovery = audit_pairs(
        condition, statuses, crash_victims
    )
    if expected:
        ratio = discovered / expected
    elif len(statuses) >= 2:
        # A real scraped population that genuinely has no expected
        # pairs (tiny N/K can hash that way): vacuously complete.
        ratio = 1.0
    else:
        # Nothing (or one node) answered the final scrape: report zero,
        # not a vacuous 100% — the --expect-discovery gate exists to
        # catch exactly this kind of dead overlay.
        ratio = 0.0
    monitor_delays: Dict[int, List[float]] = {}
    undiscovered = 0
    comp_rates: List[float] = []
    memory: List[float] = []
    bandwidth: List[float] = []
    useless: List[float] = []
    datagrams = 0
    for node in sorted(statuses):
        status = statuses[node]
        if node not in join_times:
            continue
        join_time = join_times[node]
        delays = sorted(max(0.0, t - join_time) for _m, t in status.ps)
        if not delays:
            undiscovered += 1
        for rank, delay in enumerate(delays, start=1):
            monitor_delays.setdefault(rank, []).append(delay)
        life_s = max(life_seconds(node), 1e-9)
        comp_rates.append(status.computations / life_s)
        series = memory_series.get(node, [])
        memory.append(
            stats.mean(series) if series else float(status.memory_entries)
        )
        bandwidth.append(status.bytes_sent / life_s)
        useless.append(status.useless_pings / (life_s / 60.0))
        datagrams += status.datagrams_received
    avmon = config.avmon()
    summary = SimulationSummary(
        model="LIVE",
        n=config.nodes,
        seed=config.seed,
        label=config.label,
        params={
            "duration": config.duration,
            "warmup": 0.0,
            "control_fraction": 1.0,
            "churn_per_hour": config.churn_per_hour,
            "birth_death_per_day": config.birth_death_per_day,
            "overreport_fraction": 0.0,
            "sample_interval": config.sample_interval,
        },
        avmon={
            "n_expected": float(avmon.n_expected),
            "k": float(avmon.k),
            "cvs": float(avmon.cvs),
            "protocol_period": avmon.protocol_period,
            "monitoring_period": avmon.monitoring_period,
            "expected_memory_entries": avmon.expected_memory_entries,
            "enable_forgetful": avmon.enable_forgetful,
            "enable_pr2": avmon.enable_pr2,
        },
        monitor_delays=monitor_delays,
        control_count=len(memory),
        undiscovered_count=undiscovered,
        computation_rates_control=comp_rates,
        computation_rates_all=list(comp_rates),
        memory_control=memory,
        memory_all=list(memory),
        bandwidth=bandwidth,
        useless_pings=useless,
        n_longterm=n_longterm,
        final_alive=final_alive,
        events_processed=datagrams,
        window_seconds=config.duration,
    )
    return LiveReport(
        config=config,
        summary=summary,
        discovery_ratio=ratio,
        discovered_pairs=discovered,
        expected_pairs=expected,
        violations=violations,
        crashes=len(crash_victims),
        crash_victims=tuple(crash_victims),
        victim_recovery=recovery,
        final_alive=final_alive,
        elapsed=elapsed,
        statuses=dict(statuses),
    )
