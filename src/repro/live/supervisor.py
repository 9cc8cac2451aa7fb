"""Boot, churn, scrape and summarise a live AVMON overlay.

:class:`LiveSupervisor` is the deployment harness and the only
orchestration loop.  What differs between the worlds an overlay runs in
sits behind a *fabric* (:class:`ProcessFabric`): by default one OS process
per node (:mod:`repro.live.node_main`) over UDP on the wall clock; in
tests and benches, in-loop nodes over a memory hub on a virtual clock
(:class:`~repro.live.memory_transport.MemoryFabric`).  It starts the
introducer, spawns the nodes, waits for the overlay to assemble, and then

* **injects churn** through any component registered under the ``churn``
  kind — the supervisor implements the same
  :class:`~repro.churn.base.ChurnDriver` interface the simulator's cluster
  does, except ``request_leave`` is a graceful kill (SIGTERM: the node
  persists state and says goodbye), ``request_death`` a hard one
  (SIGKILL), and ``request_rejoin`` respawns the node against its
  persistent state file, so SYNTH and friends drive real churn unmodified;
* **injects one-shot crashes** (``crash_after``/``chaos``): hard kill now,
  respawn after a configurable downtime — the failure the consistency
  condition exists to survive;
* **scrapes per-node metrics** over status probes on a sampling
  cadence, and at teardown folds them into the standard
  :class:`~repro.experiments.summary.SimulationSummary`, optionally
  persisting it to a :class:`~repro.experiments.store.SummaryStore` under
  :func:`live_config_key` — so live runs flow through exactly the same
  report/figure machinery as simulated ones.

The quality bar is the paper's consistency condition: the report carries
``discovery_ratio`` — discovered ÷ expected monitor relationships over the
final alive population — and a violation count (reported PS/TS entries
that fail the condition; always 0 unless a node misbehaves).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..churn import models as _churn_models  # noqa: F401 — registers STAT/SYNTH*
from ..core import optimal
from ..core.condition import ConsistencyCondition
from ..core.hashing import NodeId
from ..experiments.store import SummaryStore, stable_key_hash
from ..experiments.summary import SimulationSummary
from ..metrics import stats
from ..registry import canonical_name, create, resolve
from .control import (
    ChaosReply,
    ChaosRequest,
    DownAck,
    DownRequest,
    FaultReply,
    FaultRequest,
    FaultUpdate,
    OverlayInfoReply,
    OverlayInfoRequest,
    OverlayStatusReply,
    OverlayStatusRequest,
    ServeStatusRequest,
    StatusReply,
    StatusRequest,
)
from .faults import SUPERVISOR, FaultPlan, introducer_label
from .introducer import Introducer, IntroducerGroup  # noqa: F401 — re-export
from .runtime import LiveNodeSpec, StateFiles
from .transport import Address, UdpTransport

__all__ = [
    "LiveConfig",
    "LiveReport",
    "LiveSupervisor",
    "ProcessFabric",
    "StatusProber",
    "audit_pairs",
    "build_live_report",
    "control_call",
    "live_config_key",
    "live_store_filename",
    "run_live",
    "summarize_statuses",
]


@dataclass
class LiveConfig:
    """One live deployment, declaratively (JSON-portable)."""

    nodes: int = 8
    duration: float = 20.0
    seed: int = 1
    #: Consistent parameters; None -> the paper's defaults for ``nodes``.
    k: Optional[int] = None
    cvs: Optional[int] = None
    #: Live runs compress the paper's 60 s periods to wall-clock seconds.
    protocol_period: float = 1.0
    monitoring_period: float = 1.0
    ping_timeout: float = 0.25
    forgetful_tau: float = 2.0
    forgetful_c: float = 1.0
    enable_forgetful: bool = True
    #: PR2 (Section 5.4) defaults ON for live deployments: a node whose
    #: boot-time join tree under-seeded its in-degree (or whose CV entries
    #: all churned away) refreshes itself back into its neighbours' views —
    #: the paper's own remedy for exactly the decay real clocks and real
    #: packet loss produce.
    enable_pr2: bool = True
    hash_algorithm: str = "md5"
    #: Churn component key (the PR-1 registry) driving process churn.
    churn: str = "STAT"
    churn_per_hour: float = 0.2
    birth_death_per_day: float = 0.2
    #: One-shot chaos: SIGKILL a random node this many seconds in.
    crash_after: Optional[float] = None
    crash_downtime: float = 3.0
    host: str = "127.0.0.1"
    #: Operator control endpoint; 0 binds an ephemeral port, -1 disables.
    control_port: int = 0
    #: HTTP availability-serving port; 0 binds an ephemeral port, None
    #: (the default) runs the overlay without a serving front end.
    serve_port: Optional[int] = None
    sample_interval: float = 2.0
    heartbeat_interval: float = 0.5
    introducer_ttl: float = 2.5
    #: Bootstrap quorum size: introducer replicas to spawn.  Nodes learn
    #: every replica's address and fail over on silence; replicas
    #: anti-entropy-sync their directories (``IntroducerSync``).
    introducers: int = 1
    #: Replica-to-replica directory sync period, seconds.
    introducer_sync_interval: float = 1.0
    #: One-shot HA chaos: kill the primary introducer this many seconds
    #: in (requires ``introducers`` >= 2; never kills the last replica).
    kill_introducer_after: Optional[float] = None
    #: Node state files live here; empty -> a run-scoped temp directory.
    #: Process fabric only: the memory fabric keeps the same JSON in memory.
    state_dir: str = ""
    #: Fault component key (registry kind ``fault``) shaping the network.
    fault: str = "NONE"
    #: Overrides for the fault component's factory (e.g. ``loss=0.25``).
    fault_params: Dict[str, Any] = field(default_factory=dict)
    label: str = "LIVE"

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.crash_after is not None and not (
            0.0 < self.crash_after < self.duration
        ):
            raise ValueError(
                f"crash_after must fall inside the run "
                f"(0, {self.duration}), got {self.crash_after}"
            )
        if self.introducers < 1:
            raise ValueError(
                f"introducers must be >= 1, got {self.introducers}"
            )
        if self.kill_introducer_after is not None:
            if self.introducers < 2:
                raise ValueError(
                    "kill_introducer_after needs a bootstrap quorum "
                    f"(introducers >= 2), got {self.introducers}"
                )
            if not 0.0 < self.kill_introducer_after < self.duration:
                raise ValueError(
                    f"kill_introducer_after must fall inside the run "
                    f"(0, {self.duration}), got {self.kill_introducer_after}"
                )

    def resolved_k(self) -> int:
        return self.k if self.k is not None else max(
            1, round(math.log2(self.nodes))
        )

    def resolved_cvs(self) -> int:
        return (
            self.cvs
            if self.cvs is not None
            else optimal.cvs_paper_default(self.nodes)
        )

    def resolved_fault_plan(self) -> FaultPlan:
        """The :class:`~repro.live.faults.FaultPlan` this deployment runs
        under, built through the ``fault`` component registry."""
        params = dict(self.fault_params)
        params.setdefault("seed", self.seed)
        return create("fault", self.fault, **params)

    def node_spec(
        self,
        node: NodeId,
        introducer: Address,
        *,
        epoch: float,
        state_file: str,
        host: str,
        introducers: Sequence[Address] = (),
    ) -> LiveNodeSpec:
        return LiveNodeSpec(
            node=node,
            introducer_host=introducer[0],
            introducer_port=introducer[1],
            n_expected=self.nodes,
            k=self.resolved_k(),
            cvs=self.resolved_cvs(),
            protocol_period=self.protocol_period,
            monitoring_period=self.monitoring_period,
            ping_timeout=self.ping_timeout,
            forgetful_tau=self.forgetful_tau,
            forgetful_c=self.forgetful_c,
            enable_forgetful=self.enable_forgetful,
            enable_pr2=self.enable_pr2,
            hash_algorithm=self.hash_algorithm,
            seed=self.seed,
            host=host,
            epoch=epoch,
            heartbeat_interval=self.heartbeat_interval,
            directory_interval=max(
                self.heartbeat_interval, self.protocol_period / 2.0
            ),
            snapshot_interval=self.protocol_period,
            state_file=state_file,
            introducers=tuple(introducers),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def live_config_key(
    config: LiveConfig, *, plan: Optional[FaultPlan] = None
) -> Tuple:
    """The structural identity of a live deployment, store-addressable.

    Unlike simulation keys this does not promise byte-identical summaries
    — wall clocks and real packet loss are not replayable — so the store
    holds the *latest* run of each distinct deployment (re-running a
    deployment overwrites its cell, exactly what a monitoring dashboard
    wants).

    *plan* overrides the config's own fault component — the in-memory
    harness accepts an explicit :class:`FaultPlan`, and a faulty run must
    never land in (and clobber) the fault-free deployment's cell.
    """
    key = (
        "LIVE-RUN",
        config.nodes,
        config.duration,
        config.seed,
        config.resolved_k(),
        config.resolved_cvs(),
        config.protocol_period,
        config.monitoring_period,
        config.ping_timeout,
        config.forgetful_tau,
        config.forgetful_c,
        config.enable_forgetful,
        config.enable_pr2,
        config.hash_algorithm,
        canonical_name(config.churn),
        config.churn_per_hour,
        config.birth_death_per_day,
        config.crash_after,
        config.crash_downtime,
    )
    if plan is None:
        plan = config.resolved_fault_plan()
    if not plan.is_null():
        # Appended only for faulty deployments, so every pre-fault store
        # cell keeps its address.
        key = key + (plan.key(),)
    if config.introducers != 1 or config.kill_introducer_after is not None:
        # Same append-only-when-non-default rule: single-introducer
        # deployments (everything that existed before HA) keep their
        # store addresses bit-for-bit.
        key = key + (
            "INTRODUCERS",
            config.introducers,
            config.kill_introducer_after,
        )
    return key


@dataclass
class _NodeHandle:
    """Supervisor-side bookkeeping for one overlay member."""

    node: NodeId
    spec: LiveNodeSpec
    #: What the fabric's ``spawn`` returned for the current life.
    process: Any = None
    first_spawn: float = 0.0
    #: The *commanded* state: flips at the request, ahead of the fabric.
    alive: bool = False
    dead: bool = False
    up_since: Optional[float] = None
    #: Length of the most recently *closed* process life, in seconds.
    last_life_seconds: float = 0.0
    #: Tail of this node's lifecycle chain (see ``_lifecycle``).
    task: Optional[asyncio.Task] = None


class _WallSim:
    """The ``sim`` facade churn models schedule against, on the fabric's
    monotonic clock (a virtual clock warps ``call_later`` too)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._loop = asyncio.get_running_loop()
        self._clock = clock
        self._t0 = clock()
        self._handles: List[asyncio.TimerHandle] = []

    @property
    def now(self) -> float:
        return self._clock() - self._t0

    def schedule(self, delay: float, callback, *args) -> asyncio.TimerHandle:
        handle = self._loop.call_later(max(0.0, delay), callback, *args)
        self._handles.append(handle)
        if len(self._handles) > 256:
            # Drop fired/cancelled handles so a churny overlay (thousands
            # of transitions per hour) does not grow this list unboundedly.
            now = self._loop.time()
            self._handles = [
                h for h in self._handles if not h.cancelled() and h.when() > now
            ]
        return handle

    def schedule_at(self, when: float, callback, *args) -> asyncio.TimerHandle:
        return self.schedule(when - self.now, callback, *args)

    # Fire-and-forget variants matching the engine's fast lane; churn
    # models schedule births/deaths and trace replays through these.
    def schedule_call(self, delay: float, callback, *args) -> None:
        self.schedule(delay, callback, *args)

    def schedule_call_at(self, when: float, callback, *args) -> None:
        self.schedule_at(when, callback, *args)

    def cancel_all(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


class ProcessFabric:
    """The production fabric: one OS process per node, UDP, wall clocks.

    This surface is everything :class:`LiveSupervisor` knows about where
    an overlay runs; :class:`~repro.live.memory_transport.MemoryFabric`
    is the only other implementation.
    """

    #: Epoch timebase, and the clock timeouts and lives are measured on.
    clock = staticmethod(time.time)
    monotonic = staticmethod(time.monotonic)

    def __init__(self, host: str) -> None:
        #: What infrastructure binds and nodes announce in ``Hello``.
        self.host = host
        #: Node state snapshots: the files the node processes write.
        self.states = StateFiles()

    def transport_factory(self, label):
        """Async ``(handler, host, port) -> endpoint``; no hub reads the
        fault *label* on UDP."""
        return UdpTransport.create

    def apply_fault_plan(self, plan_json: str) -> bool:
        """True when applied at the fabric's hub.  Not here: each process
        injects its own faults, so the plan travels in specs and pushes."""
        return False

    async def spawn(self, spec: LiveNodeSpec) -> subprocess.Popen:
        """Fire-and-poll: the process registers on its own time."""
        src_root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        # stderr goes to a per-node log next to the state file (not
        # /dev/null): a node whose ticks raise logs there, and the file is
        # the first place to look when a gate fails.
        log_path = pathlib.Path(spec.state_file).with_suffix(".log")
        try:
            stderr = open(log_path, "ab")
        except OSError:
            stderr = subprocess.DEVNULL
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.live.node_main",
                "--spec",
                spec.to_json(),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        if stderr is not subprocess.DEVNULL:
            stderr.close()  # the child holds its own descriptor now
        return process

    async def kill(self, process: subprocess.Popen, *, graceful: bool) -> None:
        """SIGTERM (persist state, say goodbye) or SIGKILL; returns at once."""
        if process.poll() is None:
            try:
                process.send_signal(
                    signal.SIGTERM if graceful else signal.SIGKILL
                )
            except OSError:
                pass

    def exited(self, process: subprocess.Popen) -> bool:
        return process.poll() is not None

    async def reap(
        self, processes: Sequence[subprocess.Popen], timeout: float = 5.0
    ) -> None:
        """Wait for signalled processes to exit; SIGKILL the stragglers."""
        deadline = time.monotonic() + timeout
        for process in processes:
            while process.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if process.poll() is None:
                process.kill()
                await asyncio.sleep(0)


class StatusProber:
    """Per-node status probing with per-attempt timeouts and retries.

    The old scrape sent one probe per node and waited a single blanket
    timeout: one partitioned or dead node stalled the whole scrape for the
    full timeout, and a single lost datagram (10 % loss is a *configured*
    regime now) silently blanked that node's sample.  Here every node is
    probed concurrently on its own retry schedule — ``attempts`` probes,
    each waiting ``timeout / attempts`` — so responsive nodes resolve on
    their first reply, lossy paths get retried, and an unreachable node
    costs only its own bounded budget, never anyone else's.
    """

    def __init__(self) -> None:
        self._waiters: Dict[Tuple[NodeId, int], asyncio.Future] = {}
        self._seq = 0

    def on_reply(self, message: Any, _addr: Address) -> None:
        """Transport handler: resolve the waiter a reply belongs to."""
        if not isinstance(message, StatusReply):
            return
        waiter = self._waiters.pop((message.node, message.probe), None)
        if waiter is not None and not waiter.done():
            waiter.set_result(message)

    async def probe(
        self,
        transport,
        entries: Sequence[Tuple[NodeId, str, int]],
        *,
        timeout: float = 1.0,
        attempts: int = 3,
    ) -> Dict[NodeId, StatusReply]:
        """One status sweep of *entries*; missing nodes are simply absent."""
        if not entries:
            return {}
        attempts = max(1, attempts)
        per_attempt = max(timeout / attempts, 1e-3)
        loop = asyncio.get_running_loop()

        async def probe_one(node: NodeId, host: str, port: int):
            # One shared future across every attempt: a retry adds another
            # outstanding probe id, it never abandons the earlier ones, so
            # a reply that takes longer than one attempt window (a
            # high-latency fault plan, a loaded host) still resolves the
            # node — the retries only add datagrams, never shrink the
            # listening window below the full timeout.
            future: asyncio.Future = loop.create_future()
            probe_ids = []
            try:
                for _ in range(attempts):
                    self._seq += 1
                    probe_id = self._seq
                    probe_ids.append(probe_id)
                    self._waiters[(node, probe_id)] = future
                    transport.send_to(
                        (host, port), StatusRequest(probe=probe_id)
                    )
                    try:
                        # shield: wait_for must not cancel the shared
                        # future on a per-attempt timeout.
                        return node, await asyncio.wait_for(
                            asyncio.shield(future), per_attempt
                        )
                    except asyncio.TimeoutError:
                        continue
                return node, None
            finally:
                for probe_id in probe_ids:
                    self._waiters.pop((node, probe_id), None)

        results = await asyncio.gather(
            *(probe_one(node, host, port) for node, host, port in entries)
        )
        return {node: reply for node, reply in results if reply is not None}


# ----------------------------------------------------------------------
# Oracle + summary construction (pure functions of the scraped statuses)
# ----------------------------------------------------------------------


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


def summarize_statuses(
    config: LiveConfig,
    statuses: Mapping[NodeId, StatusReply],
    *,
    join_times: Mapping[NodeId, float],
    life_seconds: Callable[[NodeId], float],
    memory_series: Mapping[NodeId, List[float]],
    n_longterm: int,
    final_alive: int,
) -> SimulationSummary:
    """Fold scraped node states into the standard summary shape.

    Nodes absent from *join_times* are skipped: they answered a probe but
    were not deployed by this harness (an operator hand-ran them), so
    there is no spawn/uptime bookkeeping to rate their counters with.
    """
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
    return SimulationSummary(
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
            "n_expected": float(config.nodes),
            "k": float(config.resolved_k()),
            "cvs": float(config.resolved_cvs()),
            "protocol_period": config.protocol_period,
            "monitoring_period": config.monitoring_period,
            "expected_memory_entries": (
                config.resolved_cvs() + 2.0 * config.resolved_k()
            ),
            "enable_forgetful": config.enable_forgetful,
            "enable_pr2": config.enable_pr2,
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
    """Audit + summarise one overlay run (any fabric) into a report."""
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
    summary = summarize_statuses(
        config,
        statuses,
        join_times=join_times,
        life_seconds=life_seconds,
        memory_series=memory_series,
        n_longterm=n_longterm,
        final_alive=final_alive,
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


class LiveSupervisor:
    """Owns one overlay's lifecycle; also the live ``ChurnDriver``."""

    #: Seconds granted for the overlay to fully register before failing.
    BOOT_TIMEOUT_BASE = 15.0

    def __init__(
        self,
        config: LiveConfig,
        *,
        store: Optional[SummaryStore] = None,
        journal=None,
        fabric=None,
        plan: Optional[FaultPlan] = None,
        workload: Optional[Callable[["LiveSupervisor"], Any]] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.fabric = fabric if fabric is not None else ProcessFabric(config.host)
        #: Boot-time fault plan (also keys the store cell); an explicit
        #: one overrides the config's ``fault`` component.
        self.plan = plan if plan is not None else config.resolved_fault_plan()
        #: Async ``workload(supervisor)``: started once the overlay is up,
        #: awaited before the final scrape, result kept below.
        self._workload = workload
        self.workload_result: Any = None
        self.rng = random.Random(config.seed * 7919 + 13)
        self.condition = ConsistencyCondition(
            config.resolved_k(), config.nodes, config.hash_algorithm
        )
        # Lifecycle event journal (``repro.obs``): in-memory by default,
        # sunk to a JSONL file when $AVMON_JOURNAL (or the caller) says so.
        if journal is None:
            from ..obs.journal import journal_from_env

            journal = journal_from_env()
        self.journal = journal
        self.introducer = IntroducerGroup(
            config.introducers,
            ttl=config.introducer_ttl,
            epoch=self.fabric.clock(),
            clock=self.fabric.monotonic,
            journal=journal,
            sync_interval=config.introducer_sync_interval,
        )
        self.sim: Optional[_WallSim] = None
        self._handles: Dict[NodeId, _NodeHandle] = {}
        self._next_id = 0
        self._model = None
        self._running = False
        self._stop_early = asyncio.Event()
        self._state_dir: Optional[pathlib.Path] = None
        self._scraper = None
        self._control = None
        self._prober = StatusProber()
        #: JSON of the current fault plan ("" = perfect network).
        self._fault_json = "" if self.plan.is_null() else self.plan.to_json()
        #: Whether the fabric applied the plan at its hub (else: per node).
        self._hub_faults = False
        #: True once an operator replaced the plan at runtime (enables the
        #: per-scrape re-broadcast that converges nodes that missed it).
        self._fault_pushed = False
        #: Last known address of every node ever registered: a plan that
        #: severs node->introducer traffic empties the directory, and the
        #: heal must still reach those nodes.
        self._known_addresses: Dict[NodeId, Address] = {}
        self._crash_victims: List[NodeId] = []
        self._memory_series: Dict[NodeId, List[float]] = {}
        self._last_statuses: Dict[NodeId, StatusReply] = {}
        #: Attached serving front end (``--serve``): the HTTP server, its
        #: service (for control-plane status projection) and its backend.
        self._serve_server = None
        self._serve_service = None
        self._serve_backend = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> LiveReport:
        """Boot the overlay, run it for the configured duration, report."""
        wall_start = time.perf_counter()
        config, fabric = self.config, self.fabric
        started = fabric.monotonic()
        self._hub_faults = fabric.apply_fault_plan(self._fault_json)
        await self.introducer.start(
            fabric.host,
            0,
            transport_factories=[
                fabric.transport_factory(introducer_label(index))
                for index in range(config.introducers)
            ],
        )
        self.journal.emit(
            "live.run.start",
            nodes=config.nodes,
            seed=config.seed,
            duration=config.duration,
            label=config.label,
        )
        self.sim = _WallSim(fabric.monotonic)
        workload_task: Optional[asyncio.Task] = None
        try:
            self._state_dir = (
                pathlib.Path(config.state_dir)
                if config.state_dir
                else pathlib.Path(tempfile.mkdtemp(prefix="avmon-live-"))
            )
            try:
                self._state_dir.mkdir(parents=True, exist_ok=True)
            except OSError as error:
                raise RuntimeError(
                    f"cannot use state dir {self._state_dir}: {error}"
                ) from error
            bind = fabric.transport_factory(SUPERVISOR)
            self._scraper = await bind(self._prober.on_reply, fabric.host, 0)
            if config.control_port >= 0:
                try:
                    self._control = await bind(
                        self._on_control, fabric.host, config.control_port
                    )
                except OSError:
                    # Port taken (another overlay up?): fall back to
                    # ephemeral so the run proceeds — and say so, or the
                    # operator's status/chaos/down commands would target
                    # the *other* overlay.
                    self._control = await bind(self._on_control, fabric.host, 0)
                    print(
                        f"live: control port {config.control_port} in use; "
                        f"this overlay's control is "
                        f"{fabric.host}:{self._control.local_address[1]}",
                        file=sys.stderr,
                    )
            self._running = True
            for _ in range(config.nodes):
                await self._up(self._new_handle())
            await self._await_boot()
            if config.serve_port is not None and config.serve_port >= 0:
                await self._start_serve()
            self._bind_churn()
            if config.crash_after is not None:
                self.sim.schedule(config.crash_after, self._inject_crash)
            if config.kill_introducer_after is not None:
                self.sim.schedule(
                    config.kill_introducer_after,
                    self.introducer.kill_primary,
                )
            if self._workload is not None:
                workload_task = asyncio.create_task(self._workload(self))
            await self._measurement_window()
            await self._settle()
            if workload_task is not None:
                # Run to completion even past the deadline: a half-driven
                # request schedule would be nondeterministic.
                self.workload_result = await workload_task
            # The final scrape feeds the audit: retry harder, so a lossy
            # regime degrades the *measured* discovery ratio, not the
            # measurement itself (6 probe losses in a row at 20% loss is
            # already < 0.1% per node).
            statuses = await self.scrape(
                timeout=max(2.0, config.ping_timeout * 12), attempts=6
            )
            self._last_statuses = statuses
            final_alive = self.introducer.alive_count()
        finally:
            await self._teardown(workload_task)
        self.journal.emit(
            "live.run.end",
            alive=final_alive,
            # Fabric seconds: a virtual-clock journal stays byte-identical.
            elapsed_s=round(fabric.monotonic() - started, 3),
        )
        report = build_live_report(
            config,
            self.condition,
            statuses,
            crash_victims=self._crash_victims,
            final_alive=final_alive,
            elapsed=time.perf_counter() - wall_start,
            join_times={
                node: handle.first_spawn
                for node, handle in self._handles.items()
            },
            life_seconds=self.life_seconds,
            memory_series=self._memory_series,
            n_longterm=self._next_id,
        )
        if self.store is not None:
            path = self.store.save(
                live_config_key(config, plan=self.plan), report.summary
            )
            report.store_path = str(path) if path is not None else None
        return report

    async def _await_boot(self) -> None:
        monotonic = self.fabric.monotonic
        deadline = monotonic() + (
            self.BOOT_TIMEOUT_BASE + 0.25 * self.config.nodes
        )
        while monotonic() < deadline:
            if self.introducer.alive_count() >= self.config.nodes:
                return
            dead = [
                h.node
                for h in self._handles.values()
                if h.process is not None and self.fabric.exited(h.process)
            ]
            if dead:
                raise RuntimeError(
                    f"node process(es) {sorted(dead)} exited during boot"
                )
            await asyncio.sleep(0.1)
        raise RuntimeError(
            f"overlay failed to assemble: "
            f"{self.introducer.alive_count()}/{self.config.nodes} registered"
        )

    def _bind_churn(self) -> None:
        factory = resolve("churn", self.config.churn)
        self._model = factory(
            self.config.nodes,
            random.Random(self.config.seed + 7919),
            churn_per_hour=self.config.churn_per_hour,
            birth_death_per_day=self.config.birth_death_per_day,
        )
        self._model.bind(self)
        self._model.setup()
        for handle in self._handles.values():
            if handle.alive:
                self._model.on_node_up(handle.node)

    async def _measurement_window(self) -> None:
        monotonic = self.fabric.monotonic
        deadline = monotonic() + self.config.duration
        next_sample = monotonic() + self.config.sample_interval
        while monotonic() < deadline and not self._stop_early.is_set():
            # An early `down` is noticed at the next 0.25 s tick.
            await asyncio.sleep(min(0.25, deadline - monotonic()))
            if monotonic() >= next_sample:
                next_sample = monotonic() + self.config.sample_interval
                self._rebroadcast_fault_plan()
                statuses = await self.scrape(
                    timeout=max(0.5, self.config.ping_timeout * 4)
                )
                self._last_statuses = statuses
                self.journal.emit(
                    "live.scrape",
                    answered=len(statuses),
                    alive=self.introducer.alive_count(),
                )
                for node, status in statuses.items():
                    self._memory_series.setdefault(node, []).append(
                        float(status.memory_entries)
                    )

    async def _start_serve(self) -> None:
        """Attach the HTTP availability front end to this overlay.

        Imported lazily: the supervisor must stay importable (and the
        overlay bootable) even if the serve layer is absent or broken.
        """
        from ..serve.backend import OverlayBackend
        from ..serve.http import serve_http
        from ..serve.service import AvailabilityService, ServeConfig

        backend = OverlayBackend(
            self.condition,
            self.introducer.address,
            host=self.fabric.host,
            query_timeout=max(2.0, self.config.ping_timeout * 8),
        )
        await backend.start()
        service = AvailabilityService(backend, ServeConfig())
        server = await serve_http(
            service, self.fabric.host, self.config.serve_port
        )
        self._serve_backend = backend
        self._serve_service = service
        self._serve_server = server
        port = server.sockets[0].getsockname()[1]
        self.journal.emit("live.serve_started", port=port)
        print(
            f"live: serving availability on "
            f"http://{self.fabric.host}:{port}",
            file=sys.stderr,
        )

    async def _stop_serve(self) -> None:
        if self._serve_server is not None:
            self._serve_server.close()
            try:
                await self._serve_server.wait_closed()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
            self._serve_server = None
        if self._serve_backend is not None:
            await self._serve_backend.close()
            self._serve_backend = None

    async def _settle(self) -> None:
        """Let lifecycle steps under way (a respawn mid-boot) finish
        before the final scrape; a failed step fails the run here."""
        while True:
            tasks = [h.task for h in self._handles.values() if h.task is not None]
            pending = [task for task in tasks if not task.done()]
            if not pending:
                for task in tasks:
                    task.result()
                return
            await asyncio.wait(pending)

    async def _teardown(self, workload_task: Optional[asyncio.Task]) -> None:
        self._running = False
        self.journal.emit("live.teardown")
        await self._stop_serve()
        if self.sim is not None:
            self.sim.cancel_all()
        # Fixed order (workload, then nodes by id): determinism.
        tasks = [workload_task] + [h.task for h in self._handles.values()]
        tasks = [task for task in tasks if task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        processes = [
            h.process for h in self._handles.values() if h.process is not None
        ]
        for process in processes:
            await self.fabric.kill(process, graceful=True)
        await self.fabric.reap(processes)
        if self._scraper is not None:
            self._scraper.close()
        if self._control is not None:
            self._control.close()
        self.introducer.close()
        if not self.config.state_dir and self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _lifecycle(self, handle: _NodeHandle, step, *args) -> None:
        """Queue ``step(handle, *args)`` behind the node's earlier steps.

        Requests come from timers and churn models, which cannot await a
        fabric whose spawn and kill take (virtual) time: commanded state
        flips at the request, the fabric work runs here in request order,
        so a respawn never overtakes the kill before it.
        """
        previous = handle.task

        async def chain() -> None:
            if previous is not None:
                await previous
            await step(handle, *args)

        handle.task = asyncio.get_running_loop().create_task(chain())

    async def _up(self, handle: _NodeHandle) -> None:
        process, fresh = handle.process, handle.process is None
        if not fresh and not self.fabric.exited(process):
            # A leaver still draining must not outlive its successor.
            await self.fabric.kill(process, graceful=False)
        # A respawn boots with the *current* fault plan: `avmon live chaos
        # --loss` may have replaced the one this spec was created with.
        handle.spec.fault = "" if self._hub_faults else self._fault_json
        handle.process = await self.fabric.spawn(handle.spec)
        handle.up_since = self.fabric.monotonic()
        if fresh:
            handle.first_spawn = self.fabric.clock() - self.introducer.epoch
            self.journal.emit("live.node_spawned", node=handle.node)

    async def _down(
        self, handle: _NodeHandle, graceful: bool, forget: bool = False
    ) -> None:
        if handle.up_since is not None:
            handle.last_life_seconds = (
                self.fabric.monotonic() - handle.up_since
            )
            handle.up_since = None
        if handle.process is not None:
            await self.fabric.kill(handle.process, graceful=graceful)
        if forget:
            # Death is final: the paper grants persistent storage to
            # rejoining nodes only, so a dead node's store goes with it.
            self.fabric.states.pop(handle.spec.state_file, None)

    def _take_down(
        self, handle: _NodeHandle, *, graceful: bool, forget: bool = False
    ) -> None:
        handle.alive = False
        self.introducer.drop(handle.node)
        self._lifecycle(handle, self._down, graceful, forget)

    def _new_handle(self) -> _NodeHandle:
        """Mint the next node; the caller runs or queues its first _up."""
        node = self._next_id
        self._next_id += 1
        spec = self.config.node_spec(
            node,
            self.introducer.address,
            epoch=self.introducer.epoch,
            state_file=str(self._state_dir / f"node-{node}.json"),
            host=self.fabric.host,
            introducers=self.introducer.addresses,
        )
        handle = self._handles[node] = _NodeHandle(
            node=node, spec=spec, alive=True
        )
        return handle

    def life_seconds(self, node: NodeId) -> float:
        """Seconds of the node's *current* process life (or its last one).

        The right denominator for counter-derived rates: a respawned
        process restarts its counters at zero (only CV/PS/TS and ping
        records persist), so dividing by cumulative uptime would
        understate every crash victim's rates.
        """
        handle = self._handles[node]
        if handle.up_since is not None:
            return self.fabric.monotonic() - handle.up_since
        return handle.last_life_seconds

    # ------------------------------------------------------------------
    # ChurnDriver interface (what registered churn components call)
    # ------------------------------------------------------------------

    def request_leave(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or not handle.alive or not self._running:
            return
        self.journal.emit("live.node_leave", node=node)
        self._take_down(handle, graceful=True)
        if self._model is not None:
            self._model.on_node_down(node)

    def request_rejoin(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or handle.dead or handle.alive or not self._running:
            return
        handle.alive = True
        self._lifecycle(handle, self._up)
        self.journal.emit("live.node_respawned", node=node)
        if self._model is not None:
            self._model.on_node_up(node)

    def request_birth(self) -> NodeId:
        if not self._running:
            return -1
        handle = self._new_handle()
        self._lifecycle(handle, self._up)
        # Mirror the simulator's Cluster.request_birth: the model must hear
        # about the newborn or it would never schedule its next transition.
        if self._model is not None:
            self._model.on_node_up(handle.node)
        return handle.node

    def request_death(self, node: NodeId) -> None:
        handle = self._handles.get(node)
        if handle is None or handle.dead:
            return
        self.journal.emit("live.node_death", node=node)
        self._take_down(handle, graceful=False, forget=True)
        handle.dead = True
        # Death is permanent: stop re-broadcasting fault plans at it.
        self._known_addresses.pop(node, None)
        if self._model is not None:
            self._model.on_node_death(node)

    def random_alive(self) -> Optional[NodeId]:
        alive = [h.node for h in self._handles.values() if h.alive]
        if not alive:
            return None
        return alive[self.rng.randrange(len(alive))]

    def is_alive(self, node: NodeId) -> bool:
        handle = self._handles.get(node)
        return handle is not None and handle.alive

    def is_dead(self, node: NodeId) -> bool:
        handle = self._handles.get(node)
        return handle is not None and handle.dead

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------

    def _inject_crash(self, downtime: Optional[float] = None) -> Optional[NodeId]:
        """Hard-kill a random alive node; respawn it after *downtime*."""
        if not self._running:
            return None
        victim = self.random_alive()
        if victim is None:
            return None
        handle = self._handles[victim]
        self._take_down(handle, graceful=False)
        self._crash_victims.append(victim)
        wait = self.config.crash_downtime if downtime is None else downtime
        self.journal.emit("live.node_crashed", node=victim, downtime_s=wait)
        # Deliberately NOT telling the churn model: its on_node_down would
        # schedule a competing rejoin timer and the earlier of the two
        # would win, silently overriding the requested crash downtime.
        # The rejoin notifies on_node_up, which resumes the model's cycle.
        self.sim.schedule(wait, self.request_rejoin, victim)
        return victim

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------

    async def scrape(
        self, timeout: float = 1.0, *, attempts: int = 3
    ) -> Dict[NodeId, StatusReply]:
        """One status sweep of every currently-registered node.

        Delegates to :class:`StatusProber`: concurrent per-node retry
        schedules, so one partitioned or dead node never stalls the other
        nodes' results and a lost probe datagram is retried rather than
        blanking the sample.
        """
        return await self._prober.probe(
            self._scraper,
            self.introducer.alive_entries(),
            timeout=timeout,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Runtime fault injection
    # ------------------------------------------------------------------

    def push_fault_plan(self, plan_json: str, *, merge: bool = False) -> int:
        """Replace (or update) the overlay-wide fault plan.

        Applied at the fabric's hub when it has one; otherwise broadcast
        as a :class:`FaultUpdate` to every known node and remembered so
        respawned processes boot with it.  With
        *merge*, *plan_json* is a sparse dict of plan fields laid over
        the current plan — pushing a partition onto a ``--fault WAN``
        overlay keeps the WAN loss/latency.  A malformed plan is
        rejected (returns -1) without touching state; returns the number
        of nodes the update was sent to.
        """
        try:
            if merge:
                base = (
                    FaultPlan.from_json(self._fault_json).to_dict()
                    if self._fault_json
                    else FaultPlan().to_dict()
                )
                overrides = json.loads(plan_json) if plan_json else {}
                if not isinstance(overrides, dict):
                    return -1
                base.update(overrides)
                plan = FaultPlan.from_dict(base)
                # Collapse to "" only for a fully-default plan: is_null()
                # ignores the seed (deliberately, for cache-key
                # compatibility), but a pushed --fault-seed must survive
                # here or later merges would re-base from seed 0.
                plan_json = "" if plan == FaultPlan() else plan.to_json()
            elif plan_json:
                FaultPlan.from_json(plan_json)
        except (ValueError, TypeError):
            return -1
        self._fault_json = plan_json
        self._hub_faults = self.fabric.apply_fault_plan(plan_json)
        self._fault_pushed = True
        sent = self._broadcast_fault_plan()
        self.journal.emit(
            "live.fault_plan_pushed", nodes=sent, merge=merge
        )
        return sent

    def _fault_targets(self) -> Dict[NodeId, Address]:
        """Every node a plan push should reach.

        The live directory, topped up with the last known address of
        every node that ever registered: a plan that severs
        node->introducer traffic (loss 1.0, an introducer partition)
        empties ``alive_entries()`` within one TTL, and the subsequent
        *heal* must still reach those nodes or the overlay stays faulted
        forever.  Permanently-dead nodes are dropped (``request_death``
        prunes them; re-registrations refresh stale ports), so the map is
        bounded by the overlay's living membership.
        """
        for node, host, port in self.introducer.alive_entries():
            self._known_addresses[node] = (host, port)
        return dict(self._known_addresses)

    def _broadcast_fault_plan(self) -> int:
        targets = self._fault_targets()
        if not self._hub_faults:
            update = FaultUpdate(plan=self._fault_json)
            for address in targets.values():
                self._scraper.send_to(address, update)
        return len(targets)

    def _rebroadcast_fault_plan(self) -> None:
        """Re-send the current plan ahead of each scrape sample.

        A push is one unacked datagram per node, and under the very loss
        regimes plans configure, a node can miss it (or drop off the
        directory past the TTL and re-register later with the stale
        plan).  Nodes treat a repeat of their current plan as a no-op, so
        this periodic re-send converges stragglers without resetting
        anyone's decision streams.
        """
        if self._fault_pushed:  # boot-time plans travel in the spec
            self._broadcast_fault_plan()

    # ------------------------------------------------------------------
    # Operator control plane (avmon live status/chaos/down)
    # ------------------------------------------------------------------

    @property
    def control_address(self) -> Optional[Address]:
        return self._control.local_address if self._control is not None else None

    def _on_control(self, message, addr: Address) -> None:
        if isinstance(message, OverlayStatusRequest):
            discovered, expected, _, _ = audit_pairs(
                self.condition, self._last_statuses
            )
            self._control.send_to(
                addr,
                OverlayStatusReply(
                    probe=message.probe,
                    nodes=len(self._handles),
                    alive=self.introducer.alive_count(),
                    elapsed=self.sim.now if self.sim is not None else 0.0,
                    discovered_pairs=discovered,
                    expected_pairs=expected,
                    crashes=len(self._crash_victims),
                ),
            )
        elif isinstance(message, ChaosRequest):
            victims = []
            # Cap at the overlay size and stop when nobody is left alive:
            # the control port is an unauthenticated UDP socket, so a huge
            # kill count must not pin the supervisor's event loop.
            budget = min(max(0, message.kill), len(self._handles))
            for _ in range(budget):
                victim = self._inject_crash(downtime=message.downtime)
                if victim is None:
                    break
                victims.append(victim)
            killed: List[str] = []
            for _ in range(max(0, message.kill_introducers)):
                name = self.introducer.kill_primary()
                if name is None:  # never kill the last surviving replica
                    break
                killed.append(name)
            self._control.send_to(
                addr,
                ChaosReply(
                    victims=tuple(victims),
                    introducers_killed=tuple(killed),
                ),
            )
        elif isinstance(message, OverlayInfoRequest):
            self._control.send_to(
                addr,
                OverlayInfoReply(
                    probe=message.probe,
                    nodes=self.config.nodes,
                    k=self.config.resolved_k(),
                    cvs=self.config.resolved_cvs(),
                    hash_algorithm=self.config.hash_algorithm,
                    introducer_host=self.introducer.address[0],
                    introducer_port=self.introducer.address[1],
                    epoch=self.introducer.epoch,
                ),
            )
        elif isinstance(message, ServeStatusRequest):
            # Only answered when a serving front end is attached: the
            # client's timeout is how "no serving surface" reads.
            if self._serve_service is not None:
                self._control.send_to(
                    addr,
                    self._serve_service.serve_status_reply(message.probe),
                )
        elif isinstance(message, FaultRequest):
            applied = self.push_fault_plan(
                message.plan, merge=message.merge
            )
            self._control.send_to(
                addr, FaultReply(probe=message.probe, applied=applied)
            )
        elif isinstance(message, DownRequest):
            self._control.send_to(addr, DownAck(probe=message.probe))
            self._stop_early.set()


def run_live(
    config: LiveConfig,
    *,
    store: Optional[SummaryStore] = None,
    journal=None,
) -> LiveReport:
    """Synchronous front door: deploy, run, summarise, tear down."""
    supervisor = LiveSupervisor(config, store=store, journal=journal)
    return asyncio.run(supervisor.run())


def live_store_filename(config: LiveConfig) -> str:
    """The store-relative filename a live run's summary persists under."""
    return f"{stable_key_hash(live_config_key(config))}.json"


async def _control_call(address: Address, request, timeout: float):
    loop = asyncio.get_running_loop()
    reply = loop.create_future()

    def handler(message, _addr) -> None:
        if not reply.done():
            reply.set_result(message)

    # Bind the wildcard address, not loopback: `--host <remote>` must be
    # able to reach a supervisor on another machine.
    transport = await UdpTransport.create(handler, host="0.0.0.0", port=0)
    try:
        transport.send_to(address, request)
        return await asyncio.wait_for(reply, timeout)
    finally:
        transport.close()


def control_call(address: Address, request, timeout: float = 2.0):
    """Send one operator request to a running supervisor, await the reply.

    The client behind ``avmon live status|chaos|down``.  Raises
    ``TimeoutError`` when nothing answers at *address* (no overlay up, or a
    wrong port).
    """
    return asyncio.run(_control_call(address, request, timeout))
