"""Simulated message-passing network and per-node hosts.

:class:`Network` owns the registry of hosts, tracks which are alive,
delivers messages with a sampled latency, and charges outgoing bytes to
senders.  Delivery is gated on *destination* aliveness at arrival time —
messages to departed nodes vanish silently, which is what makes ping
timeouts (and therefore coarse-view pruning, forgetful pinging and
availability measurement) behave as in a real deployment.

:class:`SimHost` adapts a protocol node (an
:class:`~repro.core.node.AvmonNode` or a baseline node) to the simulator:
it implements the :class:`~repro.core.node.NodeRuntime` interface, guards
message handling and timer callbacks on aliveness, and manages the node's
periodic processes across leaves and rejoins.

A delivery is pushed straight onto the engine's heap in its fire-and-forget
layout, ``(time, seq, deliver, (dst, message))``, one ``seq`` per copy.
A NOTIFY whose receiver is an ``AvmonNode`` (exactly that class, so
baselines and test doubles see every message) that already holds the pair
(:meth:`~repro.core.node.AvmonNode.notify_is_noop`) is not queued: PS and
TS only grow, so it would do nothing.  Its bytes are still charged, its
latency and fault draws still made, and it still counts as one event when
the clock passes its delivery time (:meth:`~repro.sim.engine.Simulator.elide_at`),
but it is never popped, delivered or handled, so one sent to a down host is
not in ``dropped_messages``.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Callable, Dict, List, Optional

from ..core.hashing import NodeId
from ..core.messages import Message, Notify
from ..core.node import AvmonNode
from ..live.faults import FaultInjector
from ..sim.engine import Simulator
from ..sim.process import PeriodicProcess
from .accounting import BandwidthAccountant
from .latency import LatencyModel, UniformLatency

__all__ = ["Network", "SimHost"]


class Network:
    """Latency-delayed, aliveness-gated message fabric with accounting.

    With a :class:`~repro.live.faults.FaultInjector` attached, every
    message additionally runs through the same loss/duplication/delay/
    partition decisions the live transports make — the sim half of the
    sim-vs-live fault conformance matrix.  Without one, behaviour (and the
    RNG stream, hence every cache key's payload) is exactly as before.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        entry_bytes: int = 8,
        fault: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else UniformLatency()
        self.rng = rng if rng is not None else random.Random(0)
        self.entry_bytes = entry_bytes
        self.fault = fault
        self.accountant = BandwidthAccountant()
        # Per-message hot-path bindings: one latency sampler closure for the
        # whole run (consumes the identical RNG stream as latency.sample)
        # and the delivery closure pushed into every heap entry.  Wire sizes
        # are memoised per message type for the types that declare a fixed
        # layout.
        self._sample_latency = self.latency.bind(self.rng)
        self._size_cache: Dict[type, int] = {}
        self._hosts: Dict[NodeId, "SimHost"] = {}
        self._alive_list: List[NodeId] = []
        self._alive_pos: Dict[NodeId, int] = {}
        #: Queued messages whose destination was down at delivery time.
        self.dropped_messages = 0
        #: Messages the fault injector decided to lose.
        self.fault_dropped = 0
        self._deliver_bound = self._make_deliver()

    @property
    def sent_messages(self) -> int:
        """Total messages handed to the network (fault losses included).

        Every send is charged to the accountant exactly once before fault
        injection, so the accountant's message total *is* this counter —
        derived here instead of paying an extra increment per send.
        """
        return self.accountant.total_messages

    # -- registry ----------------------------------------------------------

    def register(self, host: "SimHost") -> None:
        if host.id in self._hosts:
            raise ValueError(f"host {host.id} already registered")
        self._hosts[host.id] = host

    def host(self, node_id: NodeId) -> "SimHost":
        return self._hosts[node_id]

    def hosts(self):
        return self._hosts.values()

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._hosts

    # -- aliveness ----------------------------------------------------------

    def set_alive(self, node_id: NodeId, alive: bool) -> None:
        currently = node_id in self._alive_pos
        if alive and not currently:
            self._alive_pos[node_id] = len(self._alive_list)
            self._alive_list.append(node_id)
        elif not alive and currently:
            position = self._alive_pos.pop(node_id)
            last = self._alive_list[-1]
            self._alive_list[position] = last
            if last != node_id:
                self._alive_pos[last] = position
            self._alive_list.pop()

    def is_alive(self, node_id: NodeId) -> bool:
        return node_id in self._alive_pos

    def alive_count(self) -> int:
        return len(self._alive_list)

    def alive_ids(self) -> tuple:
        return tuple(self._alive_list)

    def random_alive(self, exclude: Optional[NodeId] = None) -> Optional[NodeId]:
        """Uniform random alive node id, excluding *exclude* (may be None)."""
        population = len(self._alive_list)
        if population == 0:
            return None
        if population == 1:
            only = self._alive_list[0]
            return None if only == exclude else only
        while True:
            candidate = self._alive_list[self.rng.randrange(population)]
            if candidate != exclude:
                return candidate

    # -- transport ----------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Charge *src* for the bytes and deliver to *dst* after a delay.

        Bytes are charged before fault injection: loss happens in the
        network, after the sender paid to transmit.

        This is the reference implementation; node-originated traffic goes
        through the per-host closure built by :meth:`_make_host_send`, which
        inlines the same logic (both consume one latency sample per message
        and one engine sequence number per queued delivery, and both elide
        the same held NOTIFYs, so the two entry points are interchangeable
        without perturbing the run).
        """
        size = self._size_cache.get(message.__class__)
        if size is None:
            size = message.size_bytes(self.entry_bytes)
            if message.fixed_wire_size:
                self._size_cache[message.__class__] = size
        self.accountant.charge(src, size)
        delay = self._sample_latency()
        sim = self.sim
        if self.fault is None:
            deliveries = (0.0,)
        else:
            deliveries = self.fault.plan_delivery(src, dst, sim.now)
            if not deliveries:
                self.fault_dropped += 1
                return
        held = self._notify_held(dst, message)
        for extra in deliveries:
            if held:
                sim.elide_at(sim.now + (delay + extra))
            else:
                sim.schedule_call(delay + extra, self._deliver_bound, dst, message)

    def _notify_held(self, dst: NodeId, message: Message) -> bool:
        """Whether *message* is a NOTIFY its receiver already holds."""
        if message.__class__ is not Notify:
            return False
        host = self._hosts.get(dst)
        node = host.node if host is not None else None
        return node.__class__ is AvmonNode and node.notify_is_noop(
            message.monitor, message.target
        )

    def _make_deliver(self):
        """Delivery closure: every binding it needs is a local or cell var.

        Replaces what was a bound method doing four ``self`` attribute
        chases per message; ``_hosts``'s identity is stable, so the bound
        ``get`` stays valid as hosts register.
        """
        network = self
        hosts_get = self._hosts.get

        def deliver(dst: NodeId, message: Message) -> None:
            host = hosts_get(dst)
            if host is None or not host.alive:
                network.dropped_messages += 1
                return
            # Inline of SimHost.deliver (the per-message call stack matters
            # at scale); aliveness was checked above.
            node = host.node
            if node is not None:
                node.handle_message(message)

        return deliver

    def _make_host_send(self, host: "SimHost"):
        """Build the per-host send closure used as ``SimHost.send``.

        One Python frame per send: the aliveness guard, type-memoised size
        accounting, latency sampling, the held-NOTIFY check and the heap
        push are all inlined with cell-variable bindings.  Mirrors
        :meth:`send` exactly (same RNG draws, same held NOTIFYs elided, one
        sequence number per queued delivery); the fault injector is
        consulted per send, so attaching or clearing ``network.fault``
        mid-run affects node traffic immediately, and the fault path itself
        defers to :meth:`send`, keeping that logic in one place.
        """
        network = self
        src = host.id
        sim = self.sim
        hosts_get = self._hosts.get
        elided = sim._elided  # identity stable, like the queue
        queue = sim._queue  # identity stable; see the engine module docstring
        next_seq = sim._counter.__next__
        deliver = self._deliver_bound
        size_cache = self._size_cache
        entry_bytes = self.entry_bytes
        entries = self.accountant._entries
        if type(self.latency) is UniformLatency:
            # Inline the uniform sampler: same arithmetic as
            # UniformLatency.bind, one rng.random() per message.
            low = self.latency.low
            span = self.latency.high - self.latency.low
            rng_random = self.rng.random
            sample_inline = True
        else:
            sample_latency = self._sample_latency
            sample_inline = False

        def send(dst: NodeId, message: Message, _heappush=heappush) -> None:
            if not host.alive:
                return
            if network.fault is not None:
                network.send(src, dst, message)
                return
            size = size_cache.get(message.__class__)
            if size is None:
                size = message.size_bytes(entry_bytes)
                if message.fixed_wire_size:
                    size_cache[message.__class__] = size
            entry = entries.get(src)
            if entry is None:
                entries[src] = [size, 1]
            else:
                entry[0] += size
                entry[1] += 1
            if sample_inline:
                delay = low + span * rng_random()  # >= 0 by construction
            elif (delay := sample_latency()) < 0:
                # Keep the engine's non-negative-delay invariant even for
                # custom latency models on the raw-push path.
                raise ValueError(f"latency sample must be non-negative, got {delay}")
            if message.__class__ is Notify:
                # Inline of Network._notify_held.
                receiver = hosts_get(dst)
                node = receiver.node if receiver is not None else None
                if node.__class__ is AvmonNode and node.notify_is_noop(
                    message.monitor, message.target
                ):
                    # Inline of Simulator.elide_at (delay >= 0 here).
                    elided.append(sim.now + delay)
                    if len(elided) >= sim._elided_cap:
                        sim._drain_elided(sim.now)
                    return
            _heappush(queue, (sim.now + delay, next_seq(), deliver, (dst, message)))

        return send


class SimHost:
    """One machine: aliveness, runtime services and periodic processes."""

    def __init__(self, network: Network, node_id: NodeId, rng: random.Random) -> None:
        self.network = network
        self._sim = network.sim
        self.id = node_id
        self.rng = rng
        self.alive = False
        #: Permanently departed (death is silent but final).
        self.dead = False
        self.node = None
        self._processes: List[PeriodicProcess] = []
        network.register(self)
        #: NodeRuntime.send, as a closure over this host (shadows the class
        #: method of the same name): one frame per sent message.
        self.send = network._make_host_send(self)

    # -- wiring ----------------------------------------------------------------

    def attach(self, node) -> None:
        """Bind the protocol node handled by this host."""
        self.node = node

    def add_periodic(self, period: float, callback: Callable[[], None]) -> PeriodicProcess:
        """Register a periodic process gated on this host's aliveness."""
        process = PeriodicProcess(
            self.network.sim, period, callback, guard=lambda: self.alive
        )
        self._processes.append(process)
        return process

    # -- NodeRuntime interface ----------------------------------------------------

    def now(self) -> float:
        return self._sim.now

    def send(self, dst: NodeId, message: Message) -> None:
        # Fallback with the same semantics as the instance-attribute closure
        # assigned in __init__ (kept for subclasses that skip __init__).
        if self.alive:
            self.network.send(self.id, dst, message)

    def schedule(self, delay: float, callback: Callable[..., None], *args):
        """Timer that only fires while this host is alive.

        The aliveness guard is a prebound method carrying *callback* and
        *args* in the heap entry — no per-call closure allocation.
        """
        return self._sim.schedule(delay, self._run_guarded, callback, args)

    def schedule_call(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Fire-and-forget :meth:`schedule`: aliveness-gated, no handle.

        The heap entry is pushed directly (no engine scheduling frame, no
        EventHandle); ping timeouts go through here — one per request sent.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        sim = self._sim
        heappush(
            sim._queue,
            (sim.now + delay, sim._counter.__next__(), self._run_guarded, (fn, args)),
        )

    def _run_guarded(self, callback: Callable[..., None], args: tuple) -> None:
        if self.alive:
            callback(*args)

    def choose_bootstrap(self, exclude: NodeId) -> Optional[NodeId]:
        return self.network.random_alive(exclude=exclude)

    def target_in_system(self, node: NodeId) -> bool:
        return self.network.is_alive(node)

    # -- lifecycle -------------------------------------------------------------

    def bring_up(self) -> None:
        """Mark alive and (re)start periodic processes with fresh phases."""
        if self.dead:
            raise RuntimeError(f"host {self.id} is dead and cannot come back")
        if self.alive:
            return
        self.alive = True
        self.network.set_alive(self.id, True)
        for process in self._processes:
            process.start(self.rng)

    def take_down(self, *, death: bool = False) -> None:
        """Mark departed; silently stops responding, per the system model."""
        if not self.alive:
            if death:
                self.dead = True
            return
        self.alive = False
        self.network.set_alive(self.id, False)
        for process in self._processes:
            process.stop()
        if death:
            self.dead = True
        if self.node is not None and hasattr(self.node, "on_leave"):
            self.node.on_leave(self.network.sim.now)

    def deliver(self, message: Message) -> None:
        if self.alive and self.node is not None:
            self.node.handle_message(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else ("up" if self.alive else "down")
        return f"SimHost(id={self.id}, {state})"
