"""Simulation orchestration: build, run and measure one AVMON experiment.

:func:`run_simulation` reproduces the experimental procedure of Section 5:

1. build the substrate (event engine, network, monitor relation, metrics);
2. create the initial population and let it warm up under the configured
   churn model (synthetic STAT/SYNTH/SYNTH-BD(2) or trace replay PL/OV);
3. at the end of the warm-up, arm the rate metrics, inject the control
   group (10 % of N joining simultaneously for STAT/SYNTH; implicit for the
   birth/death models, where nodes born after warm-up are tracked), and
   optionally flip a fraction of nodes into overreporting colluders;
4. run the measurement window and return a :class:`SimulationResult`,
   whose :meth:`~SimulationResult.summary` carries every series the
   paper's figures need.

:class:`Cluster` implements the churn-driver interface and owns node
lifecycles and true-uptime bookkeeping.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..churn import models as _churn_models  # noqa: F401 — registers STAT/SYNTH*
from ..churn import replay as _churn_replay  # noqa: F401 — registers TRACE/PL/OV
from ..churn.base import ChurnModel
from ..core.condition import ConsistencyCondition
from ..core.config import AvmonConfig
from ..core.hashing import NodeId
from ..core.node import AvmonNode
from ..core.relation import MonitorRelation
from ..live.faults import FaultInjector, FaultPlan
from ..metrics import stats
from ..metrics.collectors import MetricsHub
from ..net.latency import LatencyModel, UniformLatency
from ..net.network import Network, SimHost
from ..registry import resolve
from ..sim.engine import Simulator
from ..sim.randomness import RandomSource
from ..traces.format import AvailabilityTrace

__all__ = ["SimulationConfig", "SimulationResult", "Cluster", "run_simulation"]

#: Control-group injection styles.
CONTROL_SIMULTANEOUS = "simultaneous"
CONTROL_BIRTHS_AFTER_WARMUP = "births_after_warmup"
CONTROL_ALL_BIRTHS = "all_births"


@dataclass
class SimulationConfig:
    """Everything one experiment run depends on."""

    model: str = "STAT"
    n: int = 200
    duration: float = 2.0 * 3600.0
    warmup: float = 1200.0
    control_fraction: float = 0.1
    seed: int = 1
    #: AVMON protocol settings; None -> paper defaults for ``n``.
    avmon: Optional[AvmonConfig] = None
    #: Synthetic churn parameters (SYNTH / SYNTH-BD).
    churn_per_hour: float = 0.2
    birth_death_per_day: float = 0.2
    #: Replay trace (required when model is "TRACE"/"PL"/"OV").
    trace: Optional[AvailabilityTrace] = None
    #: Fraction of nodes that overreport TS availabilities (Figure 20).
    overreport_fraction: float = 0.0
    #: One-way latency bounds in seconds.
    latency_low: float = 0.02
    latency_high: float = 0.1
    #: Memory-sampling cadence during the measurement window.
    sample_interval: float = 120.0
    label: str = ""
    #: Pluggable latency model; None -> UniformLatency(latency_low, latency_high).
    latency: Optional[LatencyModel] = None
    #: Network fault plan (loss/duplication/partitions); None -> perfect
    #: network, with the exact pre-fault behaviour and cache key.
    fault: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n <= 1:
            raise ValueError(f"n must exceed 1, got {self.n}")
        if self.duration <= self.warmup:
            raise ValueError(
                f"duration ({self.duration}) must exceed warmup ({self.warmup})"
            )
        if not 0.0 <= self.control_fraction <= 1.0:
            raise ValueError(
                f"control_fraction must be in [0, 1], got {self.control_fraction}"
            )
        if not 0.0 <= self.overreport_fraction <= 1.0:
            raise ValueError(
                f"overreport_fraction must be in [0, 1], got {self.overreport_fraction}"
            )
        if self.is_trace_model and self.trace is None:
            raise ValueError(f"model {self.model!r} requires a trace")
        if not self.label:
            self.label = self.model

    @property
    def model_key(self) -> str:
        return self.model.upper().replace("_", "-")

    @property
    def is_trace_model(self) -> bool:
        return self.model_key in ("TRACE", "PL", "OV")

    @property
    def control_mode(self) -> str:
        if self.is_trace_model:
            return CONTROL_ALL_BIRTHS
        if self.model_key in ("SYNTH-BD", "SYNTH-BD2"):
            return CONTROL_BIRTHS_AFTER_WARMUP
        return CONTROL_SIMULTANEOUS

    def resolved_avmon(self) -> AvmonConfig:
        if self.avmon is not None:
            return self.avmon
        return AvmonConfig.paper_defaults(self.n)


class Cluster:
    """Node lifecycles, churn-driver interface, uptime bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        relation: MonitorRelation,
        avmon_config: AvmonConfig,
        metrics: MetricsHub,
        source: RandomSource,
        *,
        warmup: float,
        control_mode: str = CONTROL_SIMULTANEOUS,
    ) -> None:
        self.sim = sim
        self.network = network
        self.relation = relation
        self.avmon_config = avmon_config
        self.metrics = metrics
        self.source = source
        self.warmup = warmup
        self.control_mode = control_mode
        self.model: Optional[ChurnModel] = None

        self.nodes: Dict[NodeId, AvmonNode] = {}
        self.control_nodes: Set[NodeId] = set()
        self._next_id = 0
        self._dead: Set[NodeId] = set()
        #: node -> list of [up_start, up_end]; open interval has end None.
        self._uptime: Dict[NodeId, List[List[Optional[float]]]] = defaultdict(list)
        self._first_join: Dict[NodeId, float] = {}
        self.births_total = 0

    def bind_model(self, model: ChurnModel) -> None:
        self.model = model
        model.bind(self)

    # -- node construction -------------------------------------------------

    def create_node(self) -> NodeId:
        """Allocate id, host, protocol node and periodic processes (down)."""
        node_id = self._next_id
        self._next_id += 1
        self.relation.add_node(node_id)
        host = SimHost(self.network, node_id, self.source.node_stream(node_id))
        node = AvmonNode(
            node_id, self.avmon_config, self.relation, host, self.metrics
        )
        host.attach(node)
        host.add_periodic(self.avmon_config.protocol_period, node.protocol_tick)
        host.add_periodic(self.avmon_config.monitoring_period, node.monitoring_tick)
        self.nodes[node_id] = node
        self.births_total += 1
        return node_id

    def host_of(self, node_id: NodeId) -> SimHost:
        return self.network.host(node_id)

    def bring_up(self, node_id: NodeId) -> None:
        """Transition a down node to alive and run the join protocol."""
        host = self.host_of(node_id)
        host.bring_up()
        now = self.sim.now
        self._uptime[node_id].append([now, None])
        if node_id not in self._first_join:
            self._first_join[node_id] = now
        self.nodes[node_id].begin_join()
        if self.model is not None:
            self.model.on_node_up(node_id)

    def take_down(self, node_id: NodeId, *, death: bool = False) -> None:
        host = self.host_of(node_id)
        host.take_down(death=death)
        intervals = self._uptime[node_id]
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = self.sim.now
        if death:
            self._dead.add(node_id)
            if self.model is not None:
                self.model.on_node_death(node_id)
        elif self.model is not None:
            self.model.on_node_down(node_id)

    def track_control(self, node_id: NodeId, join_time: float) -> None:
        self.control_nodes.add(node_id)
        self.metrics.discovery.track(node_id, join_time)

    # -- ChurnDriver interface ------------------------------------------------

    def request_leave(self, node: NodeId) -> None:
        if self.network.is_alive(node):
            self.take_down(node)

    def request_rejoin(self, node: NodeId) -> None:
        if node not in self._dead and not self.network.is_alive(node):
            self.bring_up(node)

    def request_birth(self) -> NodeId:
        node_id = self.create_node()
        now = self.sim.now
        if self.control_mode == CONTROL_ALL_BIRTHS or (
            self.control_mode == CONTROL_BIRTHS_AFTER_WARMUP and now >= self.warmup
        ):
            self.track_control(node_id, now)
        self.bring_up(node_id)
        return node_id

    def request_death(self, node: NodeId) -> None:
        self.take_down(node, death=True)

    def random_alive(self) -> Optional[NodeId]:
        return self.network.random_alive()

    def is_alive(self, node: NodeId) -> bool:
        return self.network.is_alive(node)

    def is_dead(self, node: NodeId) -> bool:
        return node in self._dead

    # -- ground truth --------------------------------------------------------------

    def true_availability(self, node: NodeId, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` the node was actually up."""
        if end <= start:
            return 0.0
        return self.uptime_in_window(node, start, end) / (end - start)

    def uptime_in_window(self, node: NodeId, start: float, end: float) -> float:
        """Seconds the node was up within ``[start, end)``."""
        up = 0.0
        for interval_start, interval_end in self._uptime.get(node, ()):  # type: ignore[misc]
            closed_end = interval_end if interval_end is not None else end
            up += max(0.0, min(closed_end, end) - max(interval_start, start))
        return up

    def first_join_time(self, node: NodeId) -> Optional[float]:
        return self._first_join.get(node)

    def alive_ids(self) -> Tuple[NodeId, ...]:
        return self.network.alive_ids()


@dataclass
class SimulationResult:
    """Everything measured by one run: the raw state :func:`summarize`
    reads.  The figure-facing accessors (discovery delays and CDF,
    availability ratios, fraction affected) live on the summary only."""

    config: SimulationConfig
    avmon_config: AvmonConfig
    metrics: MetricsHub
    cluster: Cluster
    network: Network
    #: Per-node mean memory entries over the measurement window.
    memory_means: Dict[NodeId, float]
    #: Per-node outgoing bytes during the measurement window.
    window_bytes: Dict[NodeId, int]
    window_seconds: float
    n_longterm: int
    final_alive: int
    events_processed: int = 0
    wall_seconds: float = 0.0

    # -- node selections -----------------------------------------------------------

    def _selection(self, control_only: bool) -> List[NodeId]:
        if control_only and self.cluster.control_nodes:
            return sorted(self.cluster.control_nodes)
        return sorted(self.cluster.nodes)

    def _alive_seconds(self, node: NodeId) -> float:
        """Seconds the node spent alive inside the measurement window."""
        return self.cluster.uptime_in_window(
            node, self.config.warmup, self.config.duration
        )

    #: Rate metrics skip nodes alive for less than this many seconds in the
    #: window — a node up for one protocol period has no meaningful rate.
    MIN_ALIVE_SECONDS = 300.0

    # -- computation (Figures 7, 8, 12) ----------------------------------------------

    def computation_rates(self, control_only: bool = True) -> List[float]:
        """Consistency checks per second per node, over each node's alive
        time within the window (churned nodes only accrue cost while up)."""
        rates = []
        for node in self._selection(control_only):
            alive = self._alive_seconds(node)
            if alive < self.MIN_ALIVE_SECONDS:
                continue
            rates.append(self.metrics.computation.total(node) / alive)
        return rates

    # -- memory (Figures 9, 10, 14, 16) -----------------------------------------------

    def memory_values(self, control_only: bool = True) -> List[float]:
        selection = self._selection(control_only)
        return [self.memory_means[n] for n in selection if n in self.memory_means]

    # -- bandwidth (Figure 19) -----------------------------------------------------------

    def bandwidth_rates(self) -> List[float]:
        """Outgoing bytes/second per node over its alive time in the window."""
        out = []
        for node, sent in self.window_bytes.items():
            alive = self._alive_seconds(node)
            if alive < self.MIN_ALIVE_SECONDS:
                continue
            out.append(sent / alive)
        return out

    # -- pings (Figure 18) -------------------------------------------------------------

    def useless_ping_rates(self) -> List[float]:
        """Useless monitoring pings per alive-minute per node."""
        rates = []
        for node in sorted(self.cluster.nodes):
            alive = self._alive_seconds(node)
            if alive < self.MIN_ALIVE_SECONDS:
                continue
            rates.append(self.metrics.pings.useless_total(node) / (alive / 60.0))
        return rates

    # -- availability accuracy (Figures 17, 20) ---------------------------------------------

    def availability_audit(
        self,
        control_only: bool = True,
        min_pings: int = 3,
        alive_only: bool = False,
    ) -> Dict[NodeId, Tuple[float, float]]:
        """Per node: (estimated availability averaged over PS, true uptime).

        The estimate honours overreporting monitors (they claim 1.0), which
        is exactly what Figure 20's attack measures; Figure 17 uses honest
        populations so the same code path yields the forgetful-ping ratio.
        True availability is the node's uptime fraction from its first join
        to the end of the run.  With *alive_only* the audit covers only
        nodes still in the system at the end — the population whose
        measured reputation matters to applications (departed-for-good
        nodes' ping estimates necessarily lag their wall-clock truth).
        """
        end = self.config.duration
        monitors_of: Dict[NodeId, List[NodeId]] = defaultdict(list)
        for monitor, targets in self.metrics.monitor_targets.items():
            for target in targets:
                monitors_of[target].append(monitor)
        audits: Dict[NodeId, Tuple[float, float]] = {}
        for node in self._selection(control_only):
            if alive_only and not self.network.is_alive(node):
                continue
            first_join = self.cluster.first_join_time(node)
            if first_join is None or first_join >= end:
                continue
            estimates = []
            for monitor_id in monitors_of.get(node, ()):  # monitors that found it
                monitor = self.cluster.nodes.get(monitor_id)
                if monitor is None:
                    continue
                record = monitor.store.get(node)
                if record is None or record.pings_sent < min_pings:
                    continue
                estimates.append(monitor.availability_report(node))
            if not estimates:
                continue
            truth = self.cluster.true_availability(node, first_join, end)
            audits[node] = (stats.mean(estimates), truth)
        return audits

    # -- summary extraction ----------------------------------------------------

    def summary(self):
        """Flat, picklable :class:`~repro.experiments.summary.SimulationSummary`
        carrying every series the figures consume (see that module)."""
        from .summary import summarize

        return summarize(self)


def run_simulation(
    config: SimulationConfig, *, obs=None
) -> SimulationResult:
    """Build and execute one experiment; see the module docstring.

    *obs* is an optional :class:`repro.obs.registry.MetricsRegistry`; when
    given, the engine, condition and relation are observed through it
    (callback gauges plus the relation's guarded scan instrumentation).
    The simulation itself is unaffected — hooks are read-only.
    """
    wall_start = time.perf_counter()
    avmon_config = config.resolved_avmon()
    source = RandomSource(config.seed)
    sim = Simulator()
    latency = config.latency
    if latency is None:
        latency = UniformLatency(config.latency_low, config.latency_high)
    fault = None
    if config.fault is not None and not config.fault.is_null():
        fault = FaultInjector(config.fault)
    network = Network(
        sim,
        latency=latency,
        rng=source.stream("network"),
        entry_bytes=avmon_config.entry_bytes,
        fault=fault,
    )
    condition = ConsistencyCondition(
        avmon_config.k, avmon_config.n_expected, avmon_config.hash_algorithm
    )
    relation = MonitorRelation(condition)
    if obs is not None:
        from ..obs.hooks import observe_condition, observe_simulator

        observe_simulator(obs, sim)
        observe_condition(obs, condition)
        relation.observe(obs)
    metrics = MetricsHub()
    cluster = Cluster(
        sim,
        network,
        relation,
        avmon_config,
        metrics,
        source,
        warmup=config.warmup,
        control_mode=config.control_mode,
    )
    model = _build_model(config, cluster, source)
    cluster.bind_model(model)

    _provision_initial_population(config, cluster, source, model)
    model.setup()

    # Warm-up boundary: arm metrics, inject control group, start attack.
    memory_sums: Dict[NodeId, float] = defaultdict(float)
    memory_counts: Dict[NodeId, int] = defaultdict(int)
    baseline_bytes: Dict[NodeId, int] = {}

    def at_warmup() -> None:
        metrics.arm(sim.now)
        baseline_bytes.update(network.accountant.snapshot())
        if config.control_mode == CONTROL_SIMULTANEOUS:
            control_size = max(1, round(config.control_fraction * config.n))
            for _ in range(control_size):
                node_id = cluster.create_node()
                cluster.track_control(node_id, sim.now)
                cluster.bring_up(node_id)
        if config.overreport_fraction > 0.0:
            _select_overreporters(config, cluster, source)

    sim.schedule_call_at(config.warmup, at_warmup)

    def sample_memory() -> None:
        for node_id in network.alive_ids():
            node = cluster.nodes[node_id]
            memory_sums[node_id] += node.memory_entries()
            memory_counts[node_id] += 1

    cursor = config.warmup + config.sample_interval
    while cursor <= config.duration:
        sim.schedule_call_at(cursor, sample_memory)
        cursor += config.sample_interval

    # The event loop allocates millions of short-lived, acyclic objects
    # (messages, heap entries); cyclic GC passes over them are pure
    # overhead, so collection is paused for the loop.  Refcounting still
    # frees everything transient; the few cyclic structures (hosts, nodes,
    # handles) outlive the run regardless and are collected once the
    # caller drops the result.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim.run_until(config.duration)
    finally:
        if gc_was_enabled:
            gc.enable()

    memory_means = {
        node: memory_sums[node] / memory_counts[node]
        for node in memory_sums
        if memory_counts[node] > 0
    }
    final_bytes = network.accountant.snapshot()
    window_bytes = {
        node: final_bytes.get(node, 0) - baseline_bytes.get(node, 0)
        for node in final_bytes
    }
    return SimulationResult(
        config=config,
        avmon_config=avmon_config,
        metrics=metrics,
        cluster=cluster,
        network=network,
        memory_means=memory_means,
        window_bytes=window_bytes,
        window_seconds=config.duration - config.warmup,
        n_longterm=cluster.births_total,
        final_alive=network.alive_count(),
        events_processed=sim.processed_events,
        wall_seconds=time.perf_counter() - wall_start,
    )


def _build_model(
    config: SimulationConfig, cluster: Cluster, source: RandomSource
) -> ChurnModel:
    """Build the churn model named by the config via the component registry.

    Every registered ``"churn"`` factory shares the signature
    ``factory(n_stable, rng, **params)`` and picks the parameters it needs,
    so third-party models plug in without touching this module.
    """
    factory = resolve("churn", config.model_key)
    return factory(
        config.n,
        source.stream("churn"),
        churn_per_hour=config.churn_per_hour,
        birth_death_per_day=config.birth_death_per_day,
        trace=config.trace,
    )


def _provision_initial_population(
    config: SimulationConfig,
    cluster: Cluster,
    source: RandomSource,
    model: ChurnModel,
) -> None:
    """Create the pre-warm-up population (synthetic models only).

    Trace models create their own population through replayed births.
    Initial joins are staggered over the first half of the warm-up so the
    bootstrap does not start from a thundering herd.
    """
    if config.is_trace_model:
        return
    rng = source.stream("initial")
    join_window = config.warmup * 0.5
    for _ in range(config.n):
        node_id = cluster.create_node()
        delay = rng.uniform(0.0, join_window)
        cluster.sim.schedule_call_at(delay, cluster.bring_up, node_id)
    down_per_alive = getattr(model, "initial_down_per_alive", 0.0)
    down_count = int(round(down_per_alive * config.n))
    for _ in range(down_count):
        node_id = cluster.create_node()
        # Hand the down node to the model so it schedules the first rejoin.
        cluster.sim.schedule_call_at(0.0, model.on_node_down, node_id)


def _select_overreporters(
    config: SimulationConfig, cluster: Cluster, source: RandomSource
) -> None:
    rng = source.stream("attack")
    population = sorted(cluster.nodes)
    count = int(round(config.overreport_fraction * len(population)))
    for node_id in rng.sample(population, min(count, len(population))):
        cluster.nodes[node_id].overreports = True
