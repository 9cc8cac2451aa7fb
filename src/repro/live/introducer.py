"""The introducer: bootstrap and aliveness oracle for a live overlay.

AVMON's protocols assume two environment services the simulator provided
for free: ``choose_bootstrap`` (a uniformly random currently-alive node)
and the alive-node oracle behind the useless-ping metric.  In a real
deployment both come from an *introducer* — a tiny, soft-state UDP service
every node registers with:

* :class:`Hello` announces a node and its UDP port; the introducer records
  the address and replies with the overlay epoch;
* :class:`Heartbeat` keeps the registration alive; silence past
  ``ttl`` seconds (a crashed or partitioned node) expires it;
* :class:`Goodbye` expires it immediately (graceful leave);
* :class:`DirectoryRequest` returns the currently-alive peers with their
  addresses, from which each node serves its own ``choose_bootstrap``
  locally — the introducer is on no protocol hot path, receives O(N)
  heartbeats per interval, and stores O(N) soft state, so it scales the
  way the paper's join protocol assumes a bootstrap service does.

The introducer is deliberately *not* a membership authority: AVMON's
coarse views gossip membership on their own.  Losing the introducer stops
new joins and staleness-tolerant metrics, nothing else.

**High availability** (ROADMAP item 3): :class:`IntroducerGroup` runs N
replicas as a bootstrap quorum.  Each replica anti-entropy-syncs its
directory to its peers with :class:`~repro.live.control.IntroducerSync`
datagrams (entries travel with relative ages, the epoch converges to the
eldest), so killing the primary loses nothing a surviving replica has not
already merged — clients rotate to the next address and carry on.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.hashing import NodeId
from .codec import encode
from .control import (
    DirectoryReply,
    DirectoryRequest,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
    IntroducerSync,
)
from .faults import introducer_label
from .transport import Address, UdpTransport

__all__ = ["Introducer", "IntroducerGroup"]


class Introducer:
    """Soft-state registration service over one UDP socket."""

    def __init__(
        self,
        *,
        ttl: float = 5.0,
        epoch: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        journal=None,
        name: str = "introducer",
        sync_interval: float = 1.0,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.ttl = ttl
        #: Replica identity in journal events and chaos reports.
        self.name = name
        #: Seconds between anti-entropy pushes to :attr:`peers`.
        self.sync_interval = sync_interval
        #: Obs event journal (``repro.obs``); the no-op null journal by
        #: default so the datagram path pays nothing unobserved.
        if journal is None:
            from ..obs.journal import NULL_JOURNAL

            journal = NULL_JOURNAL
        self.journal = journal
        #: Overlay epoch (UNIX time); node clocks report relative to this.
        self.epoch = epoch if epoch is not None else time.time()
        #: TTL timebase; injectable so the in-memory harness can run the
        #: introducer on a virtual clock (default: the wall clock).
        self._clock = clock if clock is not None else time.monotonic
        self._transport: Optional[UdpTransport] = None
        self._addresses: Dict[NodeId, Address] = {}
        self._last_seen: Dict[NodeId, float] = {}
        #: node -> monotonic deadline before which heartbeats may not
        #: re-register it (set by :meth:`drop` for force-removed nodes).
        self._quarantine: Dict[NodeId, float] = {}
        self.registrations = 0
        #: Peer replica addresses this replica pushes sync datagrams to.
        self.peers: Tuple[Address, ...] = ()
        self._sync_task: Optional[asyncio.Task] = None
        #: Directory entries merged from peers (observability counter).
        self.synced_in = 0
        #: Bumped on every change to the membership or an address.
        self._version = 0
        #: ``(floor, version, reply, encoded reply)`` as last rendered;
        #: *floor* is the oldest ``last_seen`` among its entries.
        self._directory: Optional[Tuple[float, int, DirectoryReply, bytes]] = None

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        transport_factory=None,
    ) -> Address:
        """Bind the service; returns the actual listening address.

        *transport_factory* (an async ``(handler, host, port) -> endpoint``)
        swaps the fabric — the in-memory harness passes a
        :class:`~repro.live.memory_transport.MemoryTransport` factory.
        """
        if transport_factory is None:
            transport_factory = UdpTransport.create
        self._transport = await transport_factory(self._handle, host, port)
        return self._transport.local_address

    @property
    def address(self) -> Address:
        if self._transport is None:
            raise RuntimeError("introducer is not started")
        return self._transport.local_address

    @property
    def running(self) -> bool:
        return self._transport is not None

    def close(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            self._sync_task = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- replication -------------------------------------------------------

    def set_peers(self, peers: Sequence[Address]) -> None:
        """Declare the other replicas of this replica's bootstrap quorum."""
        self.peers = tuple(
            (host, port) for host, port in peers if (host, port) != (
                self._transport.local_address if self._transport else None
            )
        )

    def start_sync(self) -> None:
        """Begin the periodic anti-entropy push (needs a running loop)."""
        if self._sync_task is None and self.peers and self.sync_interval > 0:
            self._sync_task = asyncio.get_running_loop().create_task(
                self._sync_loop()
            )

    async def _sync_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sync_interval)
            self.send_sync()

    def send_sync(self) -> None:
        """Push this replica's whole directory to every peer, once."""
        if self._transport is None or not self.peers:
            return
        now = self._clock()
        self._expire(now)
        entries = tuple(
            (
                node,
                self._addresses[node][0],
                self._addresses[node][1],
                round(now - self._last_seen[node], 6),
            )
            for node in sorted(self._last_seen)
            if node in self._addresses
        )
        sync = IntroducerSync(
            sender=self.name, epoch=self.epoch, entries=entries
        )
        for peer in self.peers:
            self._transport.send_to(peer, sync)

    def _merge_sync(self, sync: IntroducerSync, now: float) -> None:
        """Fold a peer's directory push into this replica's soft state."""
        if 0.0 < sync.epoch < self.epoch:
            # The eldest replica's epoch wins quorum-wide: node clocks are
            # epoch-relative, so all replicas must agree on one timebase.
            self.journal.emit(
                "introducer.epoch_adopted",
                name=self.name,
                peer=sync.sender,
                epoch=sync.epoch,
            )
            self.epoch = sync.epoch
        merged = 0
        for entry in sync.entries:
            if len(entry) != 4:
                continue
            node, host, port, age = entry
            seen = now - max(0.0, float(age))
            if seen <= now - self.ttl:
                continue  # already stale at arrival
            if now < self._quarantine.get(node, 0.0):
                continue  # a forced drop outlives a peer's older view
            if seen <= self._last_seen.get(node, -math.inf):
                continue  # this replica has heard from the node more recently
            if node not in self._last_seen:
                merged += 1
            self._last_seen[node] = seen
            self._addresses[node] = (host, port)
            self._version += 1
        if merged:
            self.synced_in += merged
            self.journal.emit(
                "introducer.sync",
                name=self.name,
                peer=sync.sender,
                learned=merged,
            )

    # -- registry ----------------------------------------------------------

    def _expire(self, now: float) -> None:
        deadline = now - self.ttl
        for node, seen in list(self._last_seen.items()):
            if seen < deadline:
                del self._last_seen[node]
                self._addresses.pop(node, None)
                self._version += 1
                self.journal.emit(
                    "introducer.expired", node=node, silent_s=round(now - seen, 3)
                )
        # Quarantines are just as soft as registrations: entries used to be
        # removed only by a Hello, so ids that never respawned leaked
        # forever under churn.  An expired quarantine has done its job (the
        # corpse's in-flight heartbeats are long gone) — drop it.
        for node, lifted_at in list(self._quarantine.items()):
            if now >= lifted_at:
                del self._quarantine[node]

    def _current_directory(self) -> Tuple[float, int, DirectoryReply, bytes]:
        """The directory reply and its encoding, rendered once per change.

        A render stays valid until the version moves or ``now - ttl``
        passes its floor: until then every ``last_seen`` is at least the
        floor, so :meth:`_expire` would delete (and journal) nothing.
        """
        now = self._clock()
        cached = self._directory
        if cached is None or cached[1] != self._version or now - self.ttl > cached[0]:
            self._expire(now)
            reply = DirectoryReply(
                entries=tuple(
                    (node, self._addresses[node][0], self._addresses[node][1])
                    for node in sorted(self._last_seen)
                    if node in self._addresses
                )
            )
            cached = self._directory = (
                min(self._last_seen.values(), default=math.inf),
                self._version,
                reply,
                encode(reply),
            )
        return cached

    def alive_entries(self) -> Tuple[Tuple[NodeId, str, int], ...]:
        """Current alive peers as ``(node, host, port)``, sorted by id."""
        return self._current_directory()[2].entries

    def alive_count(self) -> int:
        return len(self.alive_entries())

    def is_alive(self, node: NodeId) -> bool:
        self._expire(self._clock())
        return node in self._last_seen

    def drop(self, node: NodeId) -> None:
        """Forcibly expire one node (the supervisor just killed it).

        Unlike an organic TTL expiry, a forced drop quarantines the id for
        one TTL: a heartbeat already in flight from the freshly-killed
        process must not resurrect the corpse.  A real respawn announces
        itself with :class:`Hello`, which lifts the quarantine.
        """
        self._last_seen.pop(node, None)
        self._addresses.pop(node, None)
        self._quarantine[node] = self._clock() + self.ttl
        self._version += 1

    # -- message handling --------------------------------------------------

    def _handle(self, message, addr: Address) -> None:
        now = self._clock()
        if isinstance(message, Hello):
            host = message.host or addr[0]
            self._quarantine.pop(message.node, None)
            self._expire(now)
            renewal = message.node in self._last_seen
            self._addresses[message.node] = (host, message.port)
            self._last_seen[message.node] = now
            self._version += 1
            self.registrations += 1
            self.journal.emit(
                "introducer.registered",
                name=self.name,
                node=message.node,
                port=message.port,
                renewal=renewal,
            )
            self._transport.send_to(
                addr, HelloAck(epoch=self.epoch, alive=self.alive_count())
            )
        elif isinstance(message, Heartbeat):
            # A heartbeat re-registers even after a TTL expiry: nodes send
            # it from the same bound socket they announced in Hello, so the
            # datagram's source address IS the node's address.  Without
            # this, one heartbeat gap longer than the TTL (a GC stall, a
            # dropped burst) would exile a healthy node forever.  A node
            # under forced-drop quarantine (just SIGKILLed) is the one
            # exception — its stale in-flight heartbeats must not
            # resurrect it; its respawn will Hello.
            if now < self._quarantine.get(message.node, 0.0):
                return
            if message.node not in self._addresses:
                self._addresses[message.node] = addr
                self._version += 1
            self._last_seen[message.node] = now
        elif isinstance(message, Goodbye):
            self.journal.emit("introducer.goodbye", node=message.node)
            self.drop(message.node)
        elif isinstance(message, DirectoryRequest):
            _floor, _version, reply, data = self._current_directory()
            self._transport.send_to(addr, reply, data)
        elif isinstance(message, IntroducerSync):
            self._merge_sync(message, now)
        # Anything else on this socket is ignored; the transport already
        # counted it.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Introducer(alive={self.alive_count()}, ttl={self.ttl})"


class IntroducerGroup:
    """N introducer replicas acting as one bootstrap quorum.

    The group mirrors the single-introducer surface the supervisor and
    the in-memory harness already use (``start``/``alive_entries``/
    ``drop``/``address``/``epoch``/``close``), so a one-replica group is a
    drop-in replacement.  All replicas share one epoch at construction;
    anti-entropy sync keeps their directories (and, defensively, the
    epoch) converged after that.
    """

    def __init__(
        self,
        count: int = 1,
        *,
        ttl: float = 5.0,
        epoch: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        journal=None,
        sync_interval: float = 1.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"introducer count must be >= 1, got {count}")
        primary = Introducer(
            ttl=ttl,
            epoch=epoch,
            clock=clock,
            journal=journal,
            name=introducer_label(0),
            sync_interval=sync_interval,
        )
        self.replicas: List[Introducer] = [primary]
        for index in range(1, count):
            self.replicas.append(
                Introducer(
                    ttl=ttl,
                    # One timebase for the whole quorum: replicas created
                    # later must not mint their own (younger) epoch.
                    epoch=primary.epoch,
                    clock=clock,
                    journal=journal,
                    name=introducer_label(index),
                    sync_interval=sync_interval,
                )
            )
        self._addresses: Tuple[Address, ...] = ()

    def __len__(self) -> int:
        return len(self.replicas)

    # -- lifecycle ---------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        transport_factory=None,
        transport_factories: Optional[Sequence] = None,
    ) -> Address:
        """Bind every replica and wire the sync mesh; returns the primary's
        address.

        *transport_factories* supplies one factory per replica (the
        in-memory fabric labels each replica distinctly); a single
        *transport_factory* (or none, for UDP) is shared.  Only the
        primary binds *port*; further replicas always bind ephemerally.
        """
        addresses = []
        for index, replica in enumerate(self.replicas):
            factory = (
                transport_factories[index]
                if transport_factories is not None
                else transport_factory
            )
            addresses.append(
                await replica.start(
                    host, port if index == 0 else 0, transport_factory=factory
                )
            )
        self._addresses = tuple(addresses)
        for index, replica in enumerate(self.replicas):
            replica.set_peers(
                [a for j, a in enumerate(addresses) if j != index]
            )
            replica.start_sync()
        return addresses[0]

    @property
    def addresses(self) -> Tuple[Address, ...]:
        """Every replica's bound address, primary first (fixed at start)."""
        return self._addresses

    @property
    def address(self) -> Address:
        """The first *running* replica's address (primary while it lives)."""
        for replica in self.replicas:
            if replica.running:
                return replica.address
        raise RuntimeError("no introducer replica is running")

    @property
    def epoch(self) -> float:
        for replica in self.replicas:
            if replica.running:
                return replica.epoch
        return self.replicas[0].epoch

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()

    def kill_primary(self) -> Optional[str]:
        """Chaos: hard-stop the first running replica; returns its name.

        Refuses to kill the last survivor (returns ``None``): with zero
        replicas the drill stops measuring failover and starts measuring
        "no bootstrap service at all", which ``live down`` already covers.
        """
        running = [replica for replica in self.replicas if replica.running]
        if len(running) < 2:
            return None
        victim = running[0]
        victim.close()  # no goodbye, no handover — a SIGKILL, not a drain
        victim.journal.emit("introducer.killed", name=victim.name)
        return victim.name

    # -- single-introducer surface (delegating to the quorum) --------------

    def alive_entries(self) -> Tuple[Tuple[NodeId, str, int], ...]:
        """The union of every running replica's directory.

        Replicas converge through sync, so entries rarely disagree; when
        they do (a registration a sync has not carried yet), the first
        running replica's address wins — it heard the node directly.
        """
        merged: Dict[NodeId, Tuple[str, int]] = {}
        for replica in self.replicas:
            if not replica.running:
                continue
            for node, host, port in replica.alive_entries():
                merged.setdefault(node, (host, port))
        return tuple(
            (node, merged[node][0], merged[node][1])
            for node in sorted(merged)
        )

    def alive_count(self) -> int:
        return len(self.alive_entries())

    def is_alive(self, node: NodeId) -> bool:
        return any(
            replica.running and replica.is_alive(node)
            for replica in self.replicas
        )

    def drop(self, node: NodeId) -> None:
        """Forcibly expire *node* on every replica (supervisor kill path).

        The quarantine must land quorum-wide: one replica still holding
        the corpse would re-teach it to the others on the next sync.
        """
        for replica in self.replicas:
            replica.drop(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = sum(1 for replica in self.replicas if replica.running)
        return (
            f"IntroducerGroup(replicas={len(self.replicas)}, "
            f"running={running})"
        )
