"""Asyncio UDP endpoint speaking the live wire codec.

:class:`UdpTransport` binds one datagram socket, decodes every incoming
payload through :mod:`repro.live.codec`, and hands well-formed messages to
a handler callback together with the sender's address.  Malformed or
unknown datagrams are counted and dropped — a live transport is attack
surface, so nothing a peer can put on the wire may crash the process.
Handler exceptions are likewise contained and counted: a bug triggered by
one datagram must not take the node down with it.

The receive path lives in :class:`DatagramEndpoint`, which the in-process
:class:`~repro.live.memory_transport.MemoryTransport` shares — one codec,
one tolerance policy, two fabrics.  The send path optionally routes
through a :class:`~repro.live.faults.FaultInjector` (see
:meth:`DatagramEndpoint.configure_faults`): dropped datagrams still count
as sent (the node transmitted; the network lost them) plus a
``fault_dropped`` tally, delayed copies go out via ``loop.call_later``.

:class:`PeerTable` is the id -> UDP address map a node routes by.  It is
fed from two directions: introducer directory refreshes (authoritative)
and passive learning from incoming datagrams (a peer that can reach us is
reachable at its source address), which keeps replies flowing even while a
directory refresh is in flight.
"""

from __future__ import annotations

import asyncio
import functools
import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.hashing import NodeId
from .codec import CodecError, decode, encode
from .faults import FaultInjector, FaultPlan, Label

__all__ = [
    "Address",
    "WireStats",
    "PeerTable",
    "DatagramEndpoint",
    "UdpTransport",
    "wait_for",
]

#: A UDP endpoint address.
Address = Tuple[str, int]

logger = logging.getLogger(__name__)


@dataclass
class WireStats:
    """Datagram-level counters one transport accumulates over its life."""

    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    malformed: int = 0
    handler_errors: int = 0
    unroutable: int = 0
    #: Datagrams the configured fault injector decided to lose.
    fault_dropped: int = 0


@dataclass
class PeerTable:
    """Mutable id -> address map with alive-set bookkeeping."""

    _addresses: Dict[NodeId, Address] = field(default_factory=dict)
    _by_address: Dict[Address, NodeId] = field(default_factory=dict)
    _alive: set = field(default_factory=set)
    #: Bumped on every effective change to either mapping, so a caller
    #: can tell that re-learning an unchanged directory would be a no-op.
    revision: int = 0

    def learn(self, node: NodeId, address: Address) -> None:
        previous = self._addresses.get(node)
        if previous != address:
            # The old address may already name another node (its UDP port
            # was reused): only release the reverse entry if it is ours.
            if previous is not None and self._by_address.get(previous) == node:
                del self._by_address[previous]
            self._addresses[node] = address
            self.revision += 1
        if self._by_address.get(address) != node:
            self._by_address[address] = node
            self.revision += 1

    def forget(self, node: NodeId) -> None:
        address = self._addresses.pop(node, None)
        if address is not None:
            self.revision += 1
            if self._by_address.get(address) == node:
                self._by_address.pop(address, None)
        self._alive.discard(node)

    def address_of(self, node: NodeId) -> Optional[Address]:
        return self._addresses.get(node)

    def id_at(self, address: Address) -> Optional[NodeId]:
        """Reverse lookup: the node known to live at *address* (or None)."""
        return self._by_address.get(address)

    def set_alive(self, nodes) -> None:
        """Replace the alive set (one directory refresh)."""
        self._alive = set(nodes)

    def alive_ids(self) -> Tuple[NodeId, ...]:
        return tuple(sorted(self._alive))

    def is_alive(self, node: NodeId) -> bool:
        return node in self._alive

    def __len__(self) -> int:
        return len(self._addresses)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._addresses


class DatagramEndpoint:
    """Codec-speaking endpoint: shared receive path + fault-injection hooks.

    Subclasses implement the actual fabric (:class:`UdpTransport` over a
    socket, :class:`~repro.live.memory_transport.MemoryTransport` over an
    in-process hub) and call :meth:`_on_datagram` for every arriving
    payload.
    """

    def __init__(self, handler: Callable[[Any, Address], None]) -> None:
        self._handler = handler
        self.stats = WireStats()
        self._closed = False
        #: Send-side fault injection; None means a perfect network.
        self.fault: Optional[FaultInjector] = None
        self._fault_label: Optional[Label] = None
        self._fault_resolve: Optional[Callable[[Address], Optional[Label]]] = None
        self._fault_clock: Optional[Callable[[], float]] = None

    # -- fault injection ---------------------------------------------------

    def configure_faults(
        self,
        fault: Optional[FaultInjector],
        *,
        label: Optional[Label] = None,
        resolve: Optional[Callable[[Address], Optional[Label]]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Attach (or detach, with ``None``) a send-side fault injector.

        *label* identifies this endpoint in link rules and partition
        groups; *resolve* maps a destination address to its label (an
        unresolvable address matches only the plan's global parameters);
        *clock* supplies "now" for timed partitions (defaults to the
        running loop's clock).
        """
        self.fault = fault
        self._fault_label = label
        self._fault_resolve = resolve
        self._fault_clock = clock

    def set_fault_plan(self, plan: FaultPlan) -> None:
        """Swap the active plan (creating an injector if none is attached)."""
        if self.fault is None:
            self.fault = FaultInjector(plan)
        else:
            self.fault.set_plan(plan)

    def _fault_now(self) -> float:
        if self._fault_clock is not None:
            return self._fault_clock()
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:
            return 0.0

    def _plan_deliveries(self, address: Address) -> Tuple[float, ...]:
        """The fault injector's verdict for one outgoing datagram."""
        fault, resolve = self.fault, self._fault_resolve
        if fault is None:
            return (0.0,)
        return fault.plan_delivery(
            self._fault_label,
            None if resolve is None else resolve(address),
            self._fault_now() if fault.timed else 0.0,
        )

    # -- receive path ------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        self.stats.datagrams_received += 1
        self.stats.bytes_received += len(data)
        try:
            message = decode(data)
        except CodecError as error:
            self.stats.malformed += 1
            logger.debug("dropped malformed datagram from %s: %s", addr, error)
            return
        try:
            self._handler(message, addr)
        except Exception:  # noqa: BLE001 — one bad datagram must not kill us
            self.stats.handler_errors += 1
            logger.exception("handler failed for %s from %s", type(message).__name__, addr)


class _Protocol(asyncio.DatagramProtocol):
    """Glue between the asyncio datagram API and :class:`UdpTransport`."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable for a departed peer: expected under churn.
        logger.debug("transport error: %s", exc)


class UdpTransport(DatagramEndpoint):
    """One bound UDP socket sending and receiving codec messages.

    Build with :meth:`create`; the *handler* receives
    ``(message, source_address)`` for every well-formed datagram.
    """

    def __init__(
        self,
        transport: asyncio.DatagramTransport,
        handler: Callable[[Any, Address], None],
    ) -> None:
        super().__init__(handler)
        self._transport = transport
        self._loop = asyncio.get_running_loop()

    @classmethod
    async def create(
        cls,
        handler: Callable[[Any, Address], None],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> "UdpTransport":
        loop = asyncio.get_running_loop()
        # Two-phase wiring: the protocol needs the UdpTransport, which needs
        # the asyncio transport returned by create_datagram_endpoint.  No
        # datagram can be dispatched before __init__ runs — the loop only
        # reads the socket on its next iteration.
        instance = cls.__new__(cls)
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _Protocol(instance), local_addr=(host, port)
        )
        instance.__init__(transport, handler)  # type: ignore[misc]
        return instance

    @property
    def local_address(self) -> Address:
        host, port = self._transport.get_extra_info("sockname")[:2]
        return (host, port)

    def send_to(
        self, address: Address, message: Any, data: Optional[bytes] = None
    ) -> int:
        """Encode and transmit one message; returns the payload size.

        *data*, when given, is ``encode(message)`` already done by the
        caller (the introducer sends one cached directory many times).
        With a fault injector attached the datagram may be lost (counted
        in ``stats.fault_dropped``), delayed or duplicated — but it always
        counts as sent: loss happens *after* the node paid to transmit.
        """
        if self._closed:
            return 0
        data = encode(message) if data is None else data
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += len(data)
        deliveries = self._plan_deliveries(address)
        if not deliveries:
            self.stats.fault_dropped += 1
            return len(data)
        for delay in deliveries:
            if delay <= 0.0:
                self._transport.sendto(data, address)
            else:
                self._loop.call_later(delay, self._sendto_later, data, address)
        return len(data)

    def _sendto_later(self, data: bytes, address: Address) -> None:
        if not self._closed:
            self._transport.sendto(data, address)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._transport.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"bound={self.local_address}"
        return f"UdpTransport({state}, sent={self.stats.datagrams_sent})"


def _release_waiter(waiter: asyncio.Future, *_args) -> None:
    if not waiter.done():
        waiter.set_result(None)


async def _cancel_and_wait(fut: asyncio.Future) -> None:
    """Cancel *fut*; wait on a side future so this wait stays cancellable."""
    waiter = asyncio.get_running_loop().create_future()
    callback = functools.partial(_release_waiter, waiter)
    fut.add_done_callback(callback)
    try:
        fut.cancel()
        await waiter
    finally:
        fut.remove_done_callback(callback)


async def wait_for(aw, timeout: float):
    """``asyncio.wait_for`` as Python 3.11 schedules it, on every Python.

    *aw* runs in its own Task, first stepped one ready-queue turn later
    (3.12's stdlib awaits it inline, which reorders seeded runs), and
    a timeout or an outer cancel cancels that Task and waits for it.
    Raises ``TimeoutError``; *timeout* must be positive.
    """
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()
    timeout_handle = loop.call_later(timeout, _release_waiter, waiter)
    callback = functools.partial(_release_waiter, waiter)
    fut = asyncio.ensure_future(aw, loop=loop)
    fut.add_done_callback(callback)
    try:
        try:
            await waiter
        except asyncio.CancelledError:
            if fut.done():
                return fut.result()
            fut.remove_done_callback(callback)
            await _cancel_and_wait(fut)
            raise
        if fut.done():
            return fut.result()
        fut.remove_done_callback(callback)
        await _cancel_and_wait(fut)
        # A task that ignored the cancel, or raised, answers for itself.
        try:
            return fut.result()
        except asyncio.CancelledError as exc:
            raise TimeoutError() from exc
    finally:
        timeout_handle.cancel()
