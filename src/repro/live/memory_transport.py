"""Deterministic in-process transport + the virtual-time memory fabric.

Over real UDP sockets on real clocks the live stack is slow, port-hungry
and irreproducible to test.  This module supplies the other fabric:

* :class:`VirtualEventLoop`: an asyncio loop whose clock jumps when it
  would sleep, so every timer, ``sleep`` and ``wait_for`` is deterministic
  and a 30-virtual-second overlay takes well under a wall second.  It
  replaced a monkeypatched stock loop (virtual ``time``; ``select(t)``
  became "advance by *t*, poll"), keeping its float arithmetic and **its
  tie order** but not its per-message cost: timers are ``(when, handle)``
  pairs compared in C, the selector is never polled, a datagram in flight
  is a slotted :class:`_Delivery`.  On equal ``when`` a pair compare falls
  through to the handles, which answer "not less" as two ``TimerHandle``
  objects do, so seeded runs keep their bytes (``(when, seq)`` would not);
* :class:`MemoryTransport` satisfies the same endpoint surface as
  :class:`~repro.live.transport.UdpTransport` (``send_to``/
  ``local_address``/``close``/``stats``, the shared
  :class:`~repro.live.transport.DatagramEndpoint` receive path;
  :meth:`MemoryNetwork.transport_factory` stands in for ``create``), but
  datagrams travel through an in-process :class:`MemoryNetwork` hub —
  still as *bytes through the codec*, so malformed-datagram tolerance and
  wire-format bugs are exercised exactly as over UDP.  One datagram:
  ``send_to`` encodes it (once per message object) and counts it;
  ``deliver`` takes the copies' delays from the injector's per-link table
  (the clock is read only for a plan with partitions) and queues one
  :class:`_Delivery` per copy; when due, a delivery hands the bytes to
  the endpoint's receive path (a turn's only due handle skips the ready
  queue), which decodes them through the codec's memo;
* :class:`MemoryNetwork` applies one
  :class:`~repro.live.faults.FaultInjector` centrally: loss, latency,
  jitter, duplication, reordering and timed partitions per the plan, every
  decision drawn from per-link seeded streams (64 buffered draws per
  link, not a generator each).  **Precondition:** a
  :class:`VirtualEventLoop` runs it (:func:`run_virtual` and
  :class:`MemoryOverlay` make one): delivery writes its heap directly;
* :class:`MemoryFabric` plugs those into
  :class:`~repro.live.supervisor.LiveSupervisor` and owns what its nodes
  would otherwise each copy: one
  :class:`~repro.core.relation.MonitorRelation` (and its condition) for
  every node it spawns, respawns included, so the TS rows are held and
  hashed once per run, not once per node (a node on UDP owns its own);
  and :class:`MemoryOverlay`
  is the front door: the supervisor's own loop — boot, registered churn
  models, crash/respawn, introducer chaos, the operator control plane,
  runtime fault pushes, scrape, report — over real
  :class:`~repro.live.runtime.LiveNode` instances, in one process, no
  sockets, no subprocesses, byte-identical
  :class:`~repro.experiments.summary.SimulationSummary` output for a fixed
  seed, the same on every supported Python (the live stack's timed waits
  go through :func:`~repro.live.transport.wait_for`, not the stdlib's).
"""

from __future__ import annotations

import asyncio
from asyncio import format_helpers
from asyncio.base_events import MAXIMUM_SELECT_TIMEOUT
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from ..core.hashing import NodeId
from ..core.relation import MonitorRelation
from ..experiments.store import SummaryStore
from ..obs.journal import NULL_JOURNAL
from .codec import encode
from .config import LiveConfig
from .faults import FaultInjector, FaultPlan, Label
from .introducer import IntroducerGroup
from .report import LiveReport
from .runtime import LiveNode
from .supervisor import LiveSupervisor
from .transport import Address, DatagramEndpoint

__all__ = [
    "MEM_HOST",
    "VIRTUAL_EPOCH",
    "MemoryFabric",
    "MemoryNetwork",
    "MemoryTransport",
    "MemoryOverlay",
    "VirtualEventLoop",
    "run_memory_overlay",
    "run_virtual",
]

#: Host component of in-memory addresses (they never touch a resolver).
MEM_HOST = "mem"

#: Where virtual clocks start.  Deliberately positive: a ``LiveNodeSpec``
#: epoch of 0.0 means "adopt the introducer's", so the harness needs a
#: non-zero epoch that every node can share.
VIRTUAL_EPOCH = 1000.0


class VirtualEventLoop(asyncio.SelectorEventLoop):
    """Virtual time for code that never waits on real I/O (the selector is
    never polled), which is the point: the memory fabric has none."""

    def __init__(self, start: float = VIRTUAL_EPOCH) -> None:
        super().__init__()
        self._now = start

    def time(self) -> float:
        return self._now

    def call_at(self, when, callback, *args, context=None):
        self._check_closed()
        timer = asyncio.TimerHandle(when, callback, args, self, context)
        heappush(self._scheduled, (when, timer))
        timer._scheduled = True
        return timer

    def _run_once(self) -> None:
        # The stock _run_once with select(timeout) replaced by a clock
        # jump: its compaction thresholds and float arithmetic for "now"
        # are what keep seeded bytes (a cancelled handle's _scheduled is
        # not reset: nothing reads it again).
        scheduled, ready = self._scheduled, self._ready
        count = len(scheduled)
        if count > 100 and self._timer_cancelled_count / count > 0.5:
            scheduled = [entry for entry in scheduled if not entry[1]._cancelled]
            heapify(scheduled)
            self._scheduled, self._timer_cancelled_count = scheduled, 0
        else:
            while scheduled and scheduled[0][1]._cancelled:
                self._timer_cancelled_count -= 1
                heappop(scheduled)
        if not ready and not self._stopping:
            if not scheduled:  # nothing can ever wake it: fail, don't hang
                raise RuntimeError(
                    "virtual clock: the event loop would sleep forever "
                    "(deadlock in the in-memory overlay?)"
                )
            wait = scheduled[0][0] - self._now
            if wait > 0:
                self._now += min(wait, MAXIMUM_SELECT_TIMEOUT)
        end = self._now + self._clock_resolution
        while scheduled and scheduled[0][0] < end:
            handle = heappop(scheduled)[1]
            handle._scheduled = False  # a later cancel must not count it
            if not ready and not (scheduled and scheduled[0][0] < end):
                handle._run()  # the turn's only handle: no queue round trip
                return
            ready.append(handle)
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()


def run_virtual(coro, *, start: float = VIRTUAL_EPOCH):
    """``asyncio.run`` on a fresh :class:`VirtualEventLoop`: tasks still
    pending when *coro* returns are cancelled and run to completion (their
    ``finally`` blocks included) before the loop closes."""
    with asyncio.Runner(loop_factory=lambda: VirtualEventLoop(start)) as runner:
        return runner.run(coro)


class _Delivery:
    """``network._push(dst, data, src)`` as a loop handle without context
    copy or cancel surface; on heap ties "not less" both ways."""

    __slots__ = ("_network", "_dst", "_data", "_src", "_scheduled")
    _cancelled = False

    def __init__(self, network: "MemoryNetwork", dst, data, src) -> None:
        self._network, self._dst, self._data, self._src = network, dst, data, src

    __lt__ = __gt__ = lambda self, other: False

    def _run(self) -> None:
        try:
            self._network._push(self._dst, self._data, self._src)
        except (SystemExit, KeyboardInterrupt):
            raise
        except BaseException as exc:  # reported as Handle._run does
            push, args = self._network._push, (self._dst, self._data, self._src)
            source = format_helpers._format_callback_source(push, args)
            message = f"Exception in callback {source}"
            asyncio.get_running_loop().call_exception_handler(
                {"message": message, "exception": exc, "handle": self}
            )


class MemoryNetwork:
    """In-process datagram hub: binds endpoints, applies one fault plan.

    Unlike the UDP fabric (where each sender injects its own faults), the
    hub sees both endpoints of every datagram, so link rules and partition
    groups can name infrastructure (:data:`~repro.live.faults.SUPERVISOR`,
    :data:`~repro.live.faults.INTRODUCER`) as well as node ids.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.injector = FaultInjector(plan)
        #: Overlay-relative "now" for timed partitions; defaults to the
        #: running loop's clock.
        self._clock = clock
        self._endpoints: Dict[Address, "MemoryTransport"] = {}
        self._next_port = 1
        #: Datagrams addressed to nobody (a closed or never-bound address).
        self.undeliverable = 0
        #: Copies actually scheduled for delivery.
        self.delivered = 0

    def set_plan(self, plan: FaultPlan) -> None:
        """Swap the network-wide fault plan (e.g. heal a partition)."""
        self.injector.set_plan(plan)

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    # -- endpoint registry -------------------------------------------------

    def bind(self, endpoint: "MemoryTransport") -> Address:
        address = (MEM_HOST, self._next_port)
        self._next_port += 1
        self._endpoints[address] = endpoint
        return address

    def unbind(self, address: Address) -> None:
        self._endpoints.pop(address, None)

    def transport_factory(self, label: Optional[Label] = None):
        """An async ``(handler, host, port) -> MemoryTransport`` factory,
        signature-compatible with :meth:`UdpTransport.create` so it plugs
        straight into :class:`~repro.live.runtime.LiveNode` and
        :meth:`Introducer.start`."""

        async def factory(handler, _host: str = MEM_HOST, _port: int = 0):
            return MemoryTransport(self, handler, label=label)

        return factory

    # -- delivery ----------------------------------------------------------

    def deliver(self, src: Address, dst: Address, data: bytes) -> None:
        """Route one datagram through the fault plan to its destination;
        an endpoint's label names it in the plan (an unbound *src*: None)."""
        endpoints, injector = self._endpoints, self.injector
        target = endpoints.get(dst)
        if target is None:
            self.undeliverable += 1
            return
        source = endpoints.get(src)
        deliveries = injector.plan_delivery(
            None if source is None else source.label,
            target.label,
            self._now() if injector.timed else 0.0,
        )
        loop = asyncio.get_running_loop()
        for delay in deliveries:
            self.delivered += 1
            copy = _Delivery(self, dst, data, src)
            if delay <= 0.0:  # where call_soon would have put it
                loop._ready.append(copy)
            else:  # and call_later
                heappush(loop._scheduled, (loop._now + delay, copy))

    def _push(self, dst: Address, data: bytes, src: Address) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is not None and not endpoint._closed:
            endpoint._on_datagram(data, src)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryNetwork(endpoints={len(self._endpoints)}, "
            f"delivered={self.delivered})"
        )


class MemoryTransport(DatagramEndpoint):
    """One in-process endpoint: same surface as ``UdpTransport``, no socket.

    Messages are *encoded to bytes* on send and decoded on receive, so the
    codec sits on the path exactly as it does over UDP.  Fault injection
    happens in the hub (which knows both endpoints' labels), so
    :meth:`set_fault_plan` — the handler for a pushed
    :class:`~repro.live.control.FaultUpdate` — forwards to the network.
    """

    def __init__(
        self,
        network: MemoryNetwork,
        handler: Callable[[Any, Address], None],
        *,
        label: Optional[Label] = None,
    ) -> None:
        super().__init__(handler)
        self._network = network
        self.label = label
        self._address = network.bind(self)

    @property
    def local_address(self) -> Address:
        return self._address

    def send_to(
        self, address: Address, message: Any, data: Optional[bytes] = None
    ) -> int:
        """Encode (unless *data* already is the encoding) and route one
        message; returns the payload size."""
        if self._closed:
            return 0
        data = encode(message) if data is None else data
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += len(data)
        self._network.deliver(self._address, address, data)
        return len(data)

    def set_fault_plan(self, plan: FaultPlan) -> None:
        # The hub is the single fault-decision point on this fabric: a
        # per-endpoint injector here would compound with the network's.
        self._network.set_plan(plan)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network.unbind(self._address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"bound={self._address}"
        return f"MemoryTransport({state}, label={self.label!r})"


class MemoryFabric:
    """The deterministic counterpart of
    :class:`~repro.live.supervisor.ProcessFabric`: in-loop
    :class:`LiveNode` instances over one :class:`MemoryNetwork`, every
    clock the loop's (virtual) clock."""

    #: Addresses are ``("mem", port)``; a node announcing any other host
    #: in ``Hello`` would put an unbound address in the directory.
    host = MEM_HOST

    def __init__(self, loop: asyncio.AbstractEventLoop, journal) -> None:
        self.clock = self.monotonic = loop.time
        epoch = loop.time()
        #: Timed partitions read overlay-relative seconds.
        self.network = MemoryNetwork(clock=lambda: loop.time() - epoch)
        #: Every node's latest life, inspectable after the run.
        self.nodes: Dict[NodeId, LiveNode] = {}
        #: Node state snapshots (the JSON a node process would write to
        #: its state file), keyed by state-file path; one dict per run.
        self.states: Dict[str, str] = {}
        #: The one relation every node reads, respawns included, built at
        #: the first spawn (a run's specs carry one AvmonConfig).  A node's
        #: exchange views lie inside its own universe, a subset of this
        #: one, so it finds the matches a private relation would.
        self.relation: Optional[MonitorRelation] = None
        self._journal = journal

    def transport_factory(self, label: Optional[Label]):
        return self.network.transport_factory(label)

    def apply_fault_plan(self, plan_json: str) -> bool:
        """The hub is the single fault-decision point: node specs carry
        no plan and a push is this one ``set_plan``, not a broadcast."""
        self.network.set_plan(
            FaultPlan.from_json(plan_json) if plan_json else FaultPlan()
        )
        return True

    async def spawn(self, spec) -> LiveNode:
        """Boot one node and await its registration."""
        if self.relation is None:
            self.relation = MonitorRelation(spec.avmon.condition())
        node = self.nodes[spec.node] = LiveNode(
            spec,
            transport_factory=self.network.transport_factory(spec.node),
            clock=self.clock,
            journal=self._journal,
            states=self.states,
            relation=self.relation,
        )
        try:
            await node.start()
        except BaseException:
            await node.stop(graceful=False)  # unbind the half-booted node
            raise
        return node

    async def kill(self, node: LiveNode, *, graceful: bool) -> None:
        await node.stop(graceful=graceful)

    def exited(self, node: LiveNode) -> bool:
        return node._stopped

    async def reap(self, nodes) -> None:
        """Nothing to wait for: ``kill`` returned with the node stopped."""


class MemoryOverlay:
    """A complete live overlay run, in one process, on a virtual clock.

    :class:`~repro.live.supervisor.LiveSupervisor` on a
    :class:`MemoryFabric` and a fresh virtual-clock event loop: the loop
    ``avmon live up`` runs, but fast, socket-free and, for a fixed config
    + plan seed, byte-identical in its summary JSON.
    """

    def __init__(
        self,
        config: LiveConfig,
        *,
        plan: Optional[FaultPlan] = None,
        store: Optional[SummaryStore] = None,
        workload: Optional[Callable[["MemoryOverlay"], Any]] = None,
        journal=None,
    ) -> None:
        if config.serve_port is not None and config.serve_port >= 0:
            raise ValueError(
                "serve_port binds a TCP socket, which a virtual-clock loop "
                "cannot wait on; serve from a workload via memory_backend()"
            )
        self.config, self.plan, self.store = config, plan, store
        #: Obs event journal; no-op unless the caller provides one (never
        #: $AVMON_JOURNAL).  :meth:`run` rebinds its clock to the virtual
        #: loop, so a seeded run's timestamps are deterministic too.
        self.journal = journal if journal is not None else NULL_JOURNAL
        #: Optional async ``workload(overlay)`` started once every node is
        #: booted and awaited before the final scrape — the only way onto
        #: the virtual loop: avbench's serve workloads and the serve tests
        #: build a :func:`repro.serve.memory_backend` here and drive requests.
        self._workload = workload
        self.workload_result: Any = None
        self.condition = config.avmon().condition()
        #: Bound at :meth:`run`; inspectable after it returns.
        self.supervisor: Optional[LiveSupervisor] = None
        self.network: Optional[MemoryNetwork] = None
        self.introducer: Optional[IntroducerGroup] = None
        self.nodes: Dict[NodeId, LiveNode] = {}
        self._crash_victims: List[NodeId] = []

    def run(self) -> LiveReport:
        """Execute the deployment on a fresh :class:`VirtualEventLoop`."""
        with asyncio.Runner(loop_factory=VirtualEventLoop) as runner:
            loop = runner.get_loop()
            self.journal.bind_clock(loop.time)
            fabric = MemoryFabric(loop, self.journal)
            workload = self._workload
            supervisor = self.supervisor = LiveSupervisor(
                self.config,
                fabric=fabric,
                plan=self.plan,
                store=self.store,
                journal=self.journal,
                workload=(lambda _supervisor: workload(self))
                if workload is not None
                else None,
            )
            supervisor.condition = self.condition
            self.network, self.nodes = fabric.network, fabric.nodes
            self.introducer = supervisor.introducer
            self._crash_victims = supervisor._crash_victims
            try:
                return runner.run(supervisor.run())
            finally:
                self.workload_result = supervisor.workload_result


def run_memory_overlay(
    config: LiveConfig,
    *,
    plan: Optional[FaultPlan] = None,
    store: Optional[SummaryStore] = None,
) -> LiveReport:
    """Synchronous front door for the in-memory harness."""
    return MemoryOverlay(config, plan=plan, store=store).run()
