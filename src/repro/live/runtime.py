"""The live ``NodeRuntime``: AVMON on wall clocks and UDP datagrams.

:class:`LiveRuntime` satisfies :class:`repro.core.node.NodeRuntime` with
production ingredients — ``now()`` is the wall clock (overlay-epoch
relative), ``send()`` routes through a :class:`~repro.live.transport
.UdpTransport` via the peer table, ``schedule()`` is ``loop.call_later``,
and ``choose_bootstrap``/``target_in_system`` are served from the latest
introducer directory — so :class:`~repro.core.node.AvmonNode` runs
**unmodified** over a real network.

:class:`LiveNode` is one complete participant: it owns the transport, the
runtime, the protocol node and its periodic ticks, keeps the peer table
fresh (directory refreshes plus passive address learning), persists
protocol state across restarts (the paper's "persistent storage"
assumption) in a state store its fabric provides — files for node
processes, a dict on the memory fabric — heartbeats the introducer, and
answers the supervisor's status probes.  It can run in-process (the
conformance tests boot several on one loop) or as a standalone OS
process via :mod:`repro.live.node_main`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import pathlib
import random
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, MutableMapping, Optional, Tuple

from ..core.condition import ConsistencyCondition
from ..core.config import AvmonConfig
from ..core.hashing import NodeId
from ..core.messages import HistoryRequest, Join, Message, ReportRequest
from ..core.node import AvmonNode, MetricsSink, TimerHandle
from ..core.relation import MonitorRelation
from ..ioutils import atomic_write_text
from ..obs.journal import NULL_JOURNAL
from .control import (
    DirectoryReply,
    DirectoryRequest,
    FaultUpdate,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
    StatusReply,
    StatusRequest,
)
from .faults import FaultInjector, FaultPlan, Label, introducer_label
from .transport import Address, PeerTable, UdpTransport

__all__ = ["LiveNodeSpec", "LiveRuntime", "LiveNode", "StateFiles", "referenced_ids"]

logger = logging.getLogger(__name__)

#: Node-state snapshot schema (see :meth:`LiveNode._save_state`).
STATE_VERSION = 1


class StateFiles:
    """Node state snapshots as files, one per key (its path): the store a
    :class:`LiveNode` uses unless its fabric hands it another mapping."""

    def get(self, path: str) -> Optional[str]:
        try:
            return pathlib.Path(path).read_text(encoding="utf-8")
        except (OSError, ValueError):  # missing, unreadable or not UTF-8
            return None

    def __setitem__(self, path: str, text: str) -> None:
        atomic_write_text(path, text)

    def pop(self, path: str, default: Optional[str] = None) -> Optional[str]:
        text = self.get(path)
        try:
            pathlib.Path(path).unlink()
        except OSError:
            return default
        return default if text is None else text


#: The id-bearing fields :func:`referenced_ids` walks, in output order.
_ID_FIELDS = ("sender", "origin", "monitor", "target", "subject")
_ID_TUPLE_FIELDS = ("view", "monitors")

#: Message class -> which of those names its instances carry.
_ID_PLANS: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def referenced_ids(message: Any) -> Tuple[NodeId, ...]:
    """Every node id a protocol message mentions.

    The live relation index learns the id universe from traffic (the
    simulator learned it from the cluster); this walks the known id-bearing
    fields so :class:`~repro.core.relation.MonitorRelation` is never asked
    about an id it has not seen.  Which of them a message class declares
    is worked out once per class, not probed by name per datagram.
    """
    cls = type(message)
    plan = _ID_PLANS.get(cls)
    if plan is None:
        declared = getattr(cls, "__dataclass_fields__", {})
        plan = _ID_PLANS[cls] = tuple(
            tuple(n for n in names if n in declared or hasattr(cls, n))
            for names in (_ID_FIELDS, _ID_TUPLE_FIELDS)
        )
    scalar_fields, tuple_fields = plan
    ids: List[NodeId] = []
    for name in scalar_fields:
        value = getattr(message, name, None)
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            ids.append(value)
    for name in tuple_fields:
        value = getattr(message, name, None)
        if isinstance(value, tuple):
            ids.extend(
                v
                for v in value
                if isinstance(v, int) and not isinstance(v, bool) and v >= 0
            )
    return tuple(ids)


@dataclass
class LiveNodeSpec:
    """Everything one live node process needs to boot (JSON-portable)."""

    node: NodeId
    introducer_host: str
    introducer_port: int
    #: The deployment's parameters (``LiveConfig.avmon()``): every node in
    #: one overlay must agree on them.
    avmon: AvmonConfig
    seed: int = 1
    host: str = "127.0.0.1"
    #: Overlay epoch (UNIX seconds); 0.0 -> adopt the introducer's.
    epoch: float = 0.0
    heartbeat_interval: float = 0.5
    directory_interval: float = 1.0
    #: Periodic state-snapshot cadence; 0 disables persistence entirely.
    snapshot_interval: float = 1.0
    #: Path of this node's persistent store; empty disables persistence.
    state_file: str = ""
    #: JSON-encoded :class:`~repro.live.faults.FaultPlan` applied to this
    #: node's outgoing datagrams; empty means a perfect network.
    fault: str = ""
    #: Every introducer replica as ``(host, port)``, primary first; empty
    #: means the single ``introducer_host``/``introducer_port`` service.
    #: Hello/Heartbeat/DirectoryRequest rotate across these on silence.
    introducers: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.avmon, dict):  # from_json
            self.avmon = AvmonConfig(**self.avmon)
        # JSON round-trips tuples as lists; normalise so address equality
        # (the peer-label lookup, the failover rotation) works either way.
        self.introducers = tuple(
            (str(host), int(port)) for host, port in self.introducers
        )

    def introducer_addresses(self) -> Tuple[Tuple[str, int], ...]:
        """The bootstrap quorum this node rotates across, primary first."""
        primary = (self.introducer_host, self.introducer_port)
        addresses = [primary]
        for address in self.introducers:
            if address not in addresses:
                addresses.append(address)
        return tuple(addresses)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LiveNodeSpec":
        return cls(**json.loads(text))


class LiveRuntime:
    """Wall-clock, UDP-backed implementation of ``NodeRuntime``.

    Satisfies the :class:`~repro.core.node.NodeRuntime` protocol
    structurally; must be constructed inside a running asyncio loop.
    """

    def __init__(
        self,
        node_id: NodeId,
        transport: UdpTransport,
        peers: PeerTable,
        rng: random.Random,
        *,
        epoch: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.id = node_id
        self.rng = rng
        self._transport = transport
        self._peers = peers
        self._epoch = epoch
        #: Absolute timebase ``now()`` subtracts the epoch from; the wall
        #: clock in production, the virtual loop clock in the in-memory
        #: harness.
        self._clock = clock if clock is not None else time.time
        self._loop = asyncio.get_running_loop()

    # -- clock -------------------------------------------------------------

    @property
    def epoch(self) -> float:
        return self._epoch

    def rebase_epoch(self, epoch: float) -> None:
        """Adopt the overlay-wide epoch announced by the introducer."""
        self._epoch = epoch

    def now(self) -> float:
        return self._clock() - self._epoch

    # -- transport ---------------------------------------------------------

    def send(self, dst: NodeId, message: Message) -> None:
        address = self._peers.address_of(dst)
        if address is None:
            self._transport.stats.unroutable += 1
            return
        self._transport.send_to(address, message)

    def schedule(self, delay: float, callback, *args) -> TimerHandle:
        return self._loop.call_later(max(0.0, delay), callback, *args)

    def schedule_call(self, delay: float, callback, *args) -> None:
        """Fire-and-forget timer (see NodeRuntime); the handle is dropped."""
        self._loop.call_later(max(0.0, delay), callback, *args)

    # -- environment oracles -----------------------------------------------

    def choose_bootstrap(self, exclude: NodeId) -> Optional[NodeId]:
        candidates = [n for n in self._peers.alive_ids() if n != exclude]
        if not candidates:
            return None
        return candidates[self.rng.randrange(len(candidates))]

    def target_in_system(self, node: NodeId) -> bool:
        return self._peers.is_alive(node)


class LiveNode:
    """One live AVMON participant: transport + runtime + protocol + loops."""

    def __init__(
        self,
        spec: LiveNodeSpec,
        metrics: Optional[MetricsSink] = None,
        *,
        transport_factory=None,
        clock: Optional[Callable[[], float]] = None,
        journal=None,
        states: Optional[MutableMapping[str, str]] = None,
    ) -> None:
        self.spec = spec
        #: Snapshot store keyed by ``spec.state_file`` (default: files).
        self._states = states if states is not None else StateFiles()
        #: Obs event journal; the no-op null journal by default, the
        #: harness's shared journal on the in-memory fabric (failover and
        #: re-seed events land on the virtual clock, deterministically).
        self.journal = journal if journal is not None else NULL_JOURNAL
        #: Async ``(handler, host, port) -> endpoint``; None -> real UDP.
        self._transport_factory = (
            transport_factory
            if transport_factory is not None
            else UdpTransport.create
        )
        self._clock = clock
        self.id = spec.node
        self.config = spec.avmon
        self.condition = ConsistencyCondition(
            spec.avmon.k, spec.avmon.n_expected, spec.avmon.hash_algorithm
        )
        self.relation = MonitorRelation(self.condition)
        self.relation.add_node(self.id)
        self.peers = PeerTable()
        self.rng = random.Random(spec.seed * 1_000_003 + spec.node)
        self._metrics = metrics
        self.transport: Optional[UdpTransport] = None
        self.runtime: Optional[LiveRuntime] = None
        self.node: Optional[AvmonNode] = None
        self.started_at: float = 0.0
        #: The bootstrap quorum, primary first; `_introducer` is the
        #: replica currently spoken to, rotated on silence.
        self._introducers: Tuple[Address, ...] = spec.introducer_addresses()
        self._introducer_index = 0
        self._introducer: Address = self._introducers[0]
        self._introducer_labels: dict = {
            address: introducer_label(index)
            for index, address in enumerate(self._introducers)
        }
        #: Loop time of the last datagram heard *from* an introducer
        #: (HelloAck or DirectoryReply); silence past the failover limit
        #: rotates to the next replica.
        self._introducer_last_reply = 0.0
        #: Rotations to another bootstrap replica (silence or boot retry).
        self.introducer_failovers = 0
        #: Directory-driven coarse-view re-seeds (island merging): peers
        #: the directory knows but the CV does not, injected at most once
        #: per re-seed interval.
        self.cv_reseeds = 0
        self._next_reseed = 0.0
        self._reseed_interval = 2.0 * spec.directory_interval
        self._tasks: List[asyncio.Task] = []
        self._joined = False
        self._hello_acked = asyncio.Event()
        self._directory_seen = asyncio.Event()
        self._stopped = False
        #: Periodic ticks that raised (contained, logged, counted).
        self.tick_errors = 0
        #: JOIN datagrams dropped by the per-origin admission budget.
        self.joins_throttled = 0
        #: Bootstrap joins re-sent because the first attempt left the node
        #: blind (its Join/CvFetch datagrams were lost or partitioned away).
        self.join_retries = 0
        #: §3.3 query traffic served: monitor-set reports about *this*
        #: node, and availability histories this node reported about its
        #: pinging targets (the serving surface's demand, seen node-side).
        self.reports_served = 0
        self.histories_served = 0
        #: JSON of the fault plan currently applied ("" = perfect network).
        self._fault_plan_json = ""
        self._join_window_start = 0.0
        self._join_counts: dict = {}
        #: ``(entries, peers.revision, alive)`` as of the last directory
        #: applied: an identical reply over an unchanged table is a no-op.
        self._applied_directory: Tuple[Any, int, List[NodeId]] = (None, -1, [])

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, register with the introducer, restore state, join, tick."""
        self.transport = await self._transport_factory(
            self._handle, self.spec.host, 0
        )
        clock = self._clock if self._clock is not None else time.time
        self.runtime = LiveRuntime(
            self.id,
            self.transport,
            self.peers,
            self.rng,
            epoch=self.spec.epoch or clock(),
            clock=clock,
        )
        # Identity/clock wiring happens unconditionally so a FaultUpdate
        # pushed later finds a fully-configured send path; the injector
        # itself exists only when a plan does.
        self.transport.configure_faults(
            FaultInjector(FaultPlan.from_json(self.spec.fault))
            if self.spec.fault
            else None,
            label=self.id,
            resolve=self._peer_label,
            clock=self.runtime.now,
        )
        self._fault_plan_json = self.spec.fault
        self.node = AvmonNode(
            self.id, self.config, self.relation, self.runtime, self._metrics
        )
        self._restore_state()
        await self._register()
        self.started_at = self.runtime.now()
        # += not =: _register's directory reply already queued the
        # join-retry task, and stop() must find it to cancel it.
        self._tasks += [
            asyncio.create_task(self._membership_loop()),
            asyncio.create_task(self._periodic_loop(
                self.config.protocol_period, self._protocol_tick
            )),
            asyncio.create_task(self._periodic_loop(
                self.config.monitoring_period, self._monitoring_tick
            )),
        ]
        if self.spec.state_file and self.spec.snapshot_interval > 0:
            self._tasks.append(asyncio.create_task(self._snapshot_loop()))

    async def _register(self) -> None:
        """Hello the introducer until acknowledged, then fetch a directory.

        With a replicated bootstrap quorum, every unacknowledged attempt
        rotates to the next replica — a node booting *during* a primary
        outage registers via whichever replica answers first.
        """
        hello = Hello(
            node=self.id, port=self.transport.local_address[1], host=self.spec.host
        )
        for attempt in range(50):
            self.transport.send_to(self._introducer, hello)
            try:
                await asyncio.wait_for(
                    self._hello_acked.wait(), timeout=0.2 * (attempt + 1)
                )
                break
            except asyncio.TimeoutError:
                self._rotate_introducer("register")
                continue
        else:
            raise RuntimeError(
                f"node {self.id}: introducer at {self._introducer} unreachable"
            )
        self.transport.send_to(self._introducer, DirectoryRequest(node=self.id))
        try:
            await asyncio.wait_for(self._directory_seen.wait(), timeout=1.0)
        except asyncio.TimeoutError:
            pass  # first node in an empty overlay: join with no bootstrap

    async def stop(self, *, graceful: bool = True) -> None:
        """Leave the overlay; with *graceful*, persist state and say goodbye."""
        if self._stopped:
            return
        self._stopped = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        if graceful and self.transport is not None:
            if self.node is not None:
                self.node.on_leave(self.runtime.now())
            self._save_state()
            self.transport.send_to(self._introducer, Goodbye(node=self.id))
            # Give the goodbye datagram one loop turn to hit the socket.
            await asyncio.sleep(0)
        if self.transport is not None:
            self.transport.close()

    # -- periodic work -----------------------------------------------------

    async def _periodic_loop(self, period: float, tick) -> None:
        # Random initial phase, as the simulator's PeriodicProcess does.
        await asyncio.sleep(self.rng.uniform(0.0, period))
        while True:
            try:
                tick()
            except Exception:  # noqa: BLE001 — same stance as the transport:
                # one bad tick must not leave a zombie that heartbeats (so
                # the directory advertises it) but never pings or discovers.
                self.tick_errors += 1
                logger.exception("node %s: periodic tick failed", self.id)
            await asyncio.sleep(period)

    def _protocol_tick(self) -> None:
        if self._joined:
            self.node.protocol_tick()

    def _monitoring_tick(self) -> None:
        if self._joined:
            self.node.monitoring_tick()

    def _peer_label(self, address: Address) -> Optional[Label]:
        """The fault-injection identity of a destination address."""
        label = self._introducer_labels.get(address)
        if label is not None:
            return label
        return self.peers.id_at(address)

    def _rotate_introducer(self, reason: str) -> None:
        """Fail over to the next bootstrap replica (round-robin).

        A no-op with a single introducer, so the pre-HA deployments keep
        their exact behaviour (and their summary bytes).
        """
        if len(self._introducers) < 2:
            return
        self._introducer_index = (self._introducer_index + 1) % len(
            self._introducers
        )
        self._introducer = self._introducers[self._introducer_index]
        self.introducer_failovers += 1
        self.journal.emit(
            "introducer.failover",
            node=self.id,
            to=self._introducer_labels[self._introducer],
            reason=reason,
        )

    async def _membership_loop(self) -> None:
        """Heartbeat the introducer and refresh the peer directory.

        Every directory request is answered by a live introducer, so a
        silent one is a dead (or partitioned-away) one: once nothing has
        been heard back for the failover limit, rotate to the next replica
        and re-``Hello`` there so it can register us before our TTL at the
        quorum lapses.
        """
        loop = asyncio.get_running_loop()
        next_directory = loop.time()
        self._introducer_last_reply = loop.time()
        silence_limit = max(
            2.5 * self.spec.directory_interval,
            3.0 * self.spec.heartbeat_interval,
        )
        while True:
            self.transport.send_to(self._introducer, Heartbeat(node=self.id))
            now = loop.time()
            if now >= next_directory:
                self.transport.send_to(
                    self._introducer, DirectoryRequest(node=self.id)
                )
                next_directory = now + self.spec.directory_interval
            if (
                len(self._introducers) > 1
                and now - self._introducer_last_reply > silence_limit
            ):
                self._rotate_introducer("silence")
                self._introducer_last_reply = now  # restart the window
                self.transport.send_to(
                    self._introducer,
                    Hello(
                        node=self.id,
                        port=self.transport.local_address[1],
                        host=self.spec.host,
                    ),
                )
            await asyncio.sleep(self.spec.heartbeat_interval)

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.spec.snapshot_interval)
            self._save_state()

    # -- message handling --------------------------------------------------

    def _join_budget(self) -> int:
        """JOIN datagrams admitted per origin per protocol period.

        Figure 1's weight rule only decrements when the recipient *adds*
        the origin, so once an origin sits in every coarse view a residual
        JOIN forwards hop-to-hop forever.  The simulator bounds that loop
        with modelled per-hop latency; localhost UDP is effectively
        zero-latency, so an un-throttled rejoin into a converged overlay
        live-locks every process (measured: >100k JOIN datagrams in 3 s on
        6 nodes).  An honest join tree bounces around small early views,
        so the budget scales with cvs — generous for legitimate spreading,
        still three orders of magnitude below the storm.
        """
        return max(8, 3 * self.config.cvs)

    def _admit_join(self, origin: NodeId) -> bool:
        now = self.runtime.now()
        if now - self._join_window_start >= self.config.protocol_period:
            self._join_window_start = now
            self._join_counts.clear()
        seen = self._join_counts.get(origin, 0)
        if seen >= self._join_budget():
            self.joins_throttled += 1
            return False
        self._join_counts[origin] = seen + 1
        return True

    def _handle(self, message: Any, addr: Address) -> None:
        if isinstance(message, Message):
            if isinstance(message, Join) and not self._admit_join(message.origin):
                return
            if isinstance(message, ReportRequest):
                self.reports_served += 1
            elif isinstance(message, HistoryRequest):
                self.histories_served += 1
            for node_id in referenced_ids(message):
                self.relation.add_node(node_id)
            # Passive address learning: the peer is reachable where the
            # datagram came from, whatever the directory currently says.
            sender = getattr(message, "sender", None)
            if isinstance(sender, int) and sender != self.id:
                self.peers.learn(sender, addr)
            self.node.handle_message(message)
        elif isinstance(message, DirectoryReply):
            self._mark_introducer_heard(addr)
            self._on_directory(message)
        elif isinstance(message, HelloAck):
            self._mark_introducer_heard(addr)
            if message.epoch > 0.0:
                self.runtime.rebase_epoch(message.epoch)
            self._hello_acked.set()
        elif isinstance(message, StatusRequest):
            self.transport.send_to(addr, self.status_reply(message.probe))
        elif isinstance(message, FaultUpdate):
            if message.plan == self._fault_plan_json:
                # Already running this exact plan.  The supervisor
                # re-broadcasts with every scrape so nodes whose
                # registration lapsed still converge; an idempotent skip
                # keeps those re-sends from resetting decision streams.
                return
            try:
                plan = (
                    FaultPlan.from_json(message.plan)
                    if message.plan
                    else FaultPlan()
                )
            except (ValueError, TypeError):
                return  # a bad plan must not take the node down
            self.transport.set_fault_plan(plan)
            self._fault_plan_json = message.plan
        # Unknown control traffic is ignored.

    def _mark_introducer_heard(self, addr: Address) -> None:
        """Reset the failover silence window: some replica answered."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # direct-drive unit tests, no loop
            return
        self._introducer_last_reply = loop.time()

    def _on_directory(self, reply: DirectoryReply) -> None:
        entries, revision, alive = self._applied_directory
        if revision != self.peers.revision or entries != reply.entries:
            alive = []
            for entry in reply.entries:
                if len(entry) != 3:
                    continue
                node_id, host, port = entry
                alive.append(node_id)
                if node_id != self.id:
                    self.relation.add_node(node_id)
                    self.peers.learn(node_id, (host, port))
            self.peers.set_alive(alive)
            self._applied_directory = (reply.entries, self.peers.revision, alive)
        self._directory_seen.set()
        self._maybe_reseed_cv(alive)
        if not self._joined:
            self._joined = True
            self.node.begin_join()
            # Figure 1 fires Join + CvFetch at one random bootstrap and
            # the core's fetch timeout deliberately does nothing — in the
            # simulator a lost join is just one unlucky node, but a live
            # joiner whose only datagrams fell into a partition stays
            # blind *forever*.  A retry loop (below) re-runs begin_join
            # with backoff until the node has any overlay state at all.
            self._tasks.append(asyncio.create_task(self._join_retry_loop()))

    def _maybe_reseed_cv(self, alive: List[NodeId]) -> None:
        """Island merging (ROADMAP item 5): re-seed the CV from directories.

        CV gossip only refreshes through already-seeded views, so two
        partition-separated islands that each converged internally never
        rediscover each other after a heal — no coarse view on either side
        holds a peer from the other.  The introducer directory *does* span
        islands (heartbeats are tiny and island-blind), so whenever a
        directory reply names an alive peer absent from our coarse view,
        inject one — uniformly at random, through the CV's own eviction
        rule, so the view stays a bounded uniform sample.  A wrongly
        injected dead peer is repaired by the existing CvPing pruning.

        Gated on the node already holding *some* overlay state — the exact
        complement of the blind-join retry loop, which owns recovery until
        any state exists (a node can end up with PS/TS but an empty CV
        when healed peers discovered *it* first) — and throttled to one
        entry per two directory intervals so merging is gentle, not a view
        takeover.
        """
        node = self.node
        if not self._joined or node is None:
            return
        if not (len(node.cv) or node.ps or node.ts):
            return  # fully blind: the join-retry loop owns bootstrap
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # direct-drive unit tests, no loop
            return
        if now < self._next_reseed:
            return
        current = set(self.node.cv.entries())
        absent = [
            node_id
            for node_id in alive
            if node_id != self.id and node_id not in current
        ]
        if not absent:
            return
        pick = absent[self.rng.randrange(len(absent))]
        self.node.cv.add(pick, self.rng)
        self.cv_reseeds += 1
        self._next_reseed = now + self._reseed_interval
        self.journal.emit("node.cv_reseed", node=self.id, peer=pick)

    async def _join_retry_loop(self) -> None:
        """Re-send the bootstrap join while the node is fully blind.

        Retries stop the moment the node holds *any* overlay state (a
        coarse-view entry, a ping set, a target set): past that point the
        normal protocol ticks take over and extra JOINs would only burn
        the per-origin admission budget at the receivers.  Each retry is
        a fresh ``begin_join`` — a new random bootstrap, so a retry also
        escapes a single dead or partitioned bootstrap choice.  Backoff
        doubles from two protocol periods up to eight, keeping the blind
        phase's datagram rate below one join per period per node.
        """
        delay = 2.0 * self.config.protocol_period
        cap = 8.0 * self.config.protocol_period
        while True:
            await asyncio.sleep(delay)
            node = self.node
            if node is None or self._stopped:
                return
            if len(node.cv) or node.ps or node.ts:
                return  # settled into the overlay
            self.join_retries += 1
            node.begin_join()
            delay = min(2.0 * delay, cap)

    # -- persistent storage (system model, Section 3) ----------------------

    def _restore_state(self) -> None:
        """Reload CV/PS/TS and ping counters saved by a previous life."""
        if not self.spec.state_file:
            return
        try:
            payload = json.loads(self._states.get(self.spec.state_file) or "")
        except json.JSONDecodeError:  # no snapshot (""), or a corrupt one
            return
        if not isinstance(payload, dict) or payload.get("version") != STATE_VERSION:
            return
        if self.spec.epoch and payload.get("epoch") != self.spec.epoch:
            # A state file from a *different* overlay run (the supervisor
            # stamps every run's specs with its introducer epoch): restoring
            # it would preload PS/TS from the old run and fake discovery.
            # Within one run, crash-respawned specs share the epoch, so
            # genuine rejoins still restore.  Hand-run nodes (epoch 0.0)
            # manage their own state directories and skip the check.
            return
        node = self.node
        node._joined_before = bool(payload.get("joined_before", True))
        saved_at = payload.get("saved_at")
        if isinstance(saved_at, (int, float)):
            node.last_leave_time = float(saved_at)
        for entry in payload.get("cv", ()):
            if isinstance(entry, int):
                self.relation.add_node(entry)
                node.cv.add(entry, self.rng)
        for pair in payload.get("ps", ()):
            if isinstance(pair, list) and len(pair) == 2:
                monitor, discovered = pair
                if isinstance(monitor, int):
                    self.relation.add_node(monitor)
                    node.ps[monitor] = float(discovered)
        for target in payload.get("ts", ()):
            if isinstance(target, int):
                self.relation.add_node(target)
                node.ts.add(target)
                node.store.record_for(target)
        for key, counts in payload.get("records", {}).items():
            try:
                target = int(key)
            except ValueError:
                continue
            if isinstance(counts, list) and len(counts) == 2:
                record = node.store.record_for(target)
                record.pings_sent = int(counts[0])
                record.pings_answered = int(counts[1])

    def _save_state(self) -> None:
        if not self.spec.state_file or self.node is None:
            return
        node = self.node
        payload = {
            "version": STATE_VERSION,
            "node": self.id,
            "epoch": self.spec.epoch,
            "saved_at": self.runtime.now(),
            "joined_before": node._joined_before,
            "cv": sorted(node.cv.entries()),
            "ps": sorted([m, t] for m, t in node.ps.items()),
            "ts": sorted(node.ts),
            "records": {
                str(record.target): [record.pings_sent, record.pings_answered]
                for record in node.store.records()
            },
        }
        try:
            self._states[self.spec.state_file] = json.dumps(payload, sort_keys=True)
        except OSError:
            # A failed snapshot costs at most one period of state; the
            # node keeps running and the next snapshot retries.
            pass

    # -- introspection -----------------------------------------------------

    def status_reply(self, probe: int = 0) -> StatusReply:
        stats = self.transport.stats
        return StatusReply(
            node=self.id,
            probe=probe,
            now=self.runtime.now(),
            started_at=self.started_at,
            ps=tuple(sorted((m, t) for m, t in self.node.ps.items())),
            ts=tuple(sorted(self.node.ts)),
            cv=tuple(sorted(self.node.cv.entries())),
            computations=self.node.computations,
            memory_entries=self.node.memory_entries(),
            useless_pings=self.node.store.useless_pings,
            bytes_sent=stats.bytes_sent,
            datagrams_sent=stats.datagrams_sent,
            datagrams_received=stats.datagrams_received,
            datagrams_malformed=stats.malformed,
            tick_errors=self.tick_errors,
            handler_errors=stats.handler_errors,
            joins_throttled=self.joins_throttled,
            reports_served=self.reports_served,
            histories_served=self.histories_served,
            introducer_failovers=self.introducer_failovers,
            cv_reseeds=self.cv_reseeds,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        joined = "joined" if self._joined else "booting"
        return f"LiveNode(id={self.id}, {joined}, peers={len(self.peers)})"
