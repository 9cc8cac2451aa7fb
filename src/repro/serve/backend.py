"""Overlay query backend: one observer client over either fabric.

The serving surface needs to run verified §3.3 queries against a live
overlay without *being* a protocol participant.  :class:`OverlayBackend`
is that observer: it binds one transport (real UDP or a
:class:`~repro.live.memory_transport.MemoryTransport`), keeps a peer
table fresh from the introducer's directory, and drives an upgraded
:class:`~repro.apps.query.QueryClient` through an async facade —
``await backend.query(target, l=2)`` — usable from the HTTP service, the
``avmon live query`` one-shot CLI, and avbench's load workloads alike.

Nodes learn the observer's address passively (every ``ReportRequest`` /
``HistoryRequest`` carries ``sender``, and the live receive path learns
sender addresses from datagram sources), so the backend needs no
introducer registration: it is invisible to the overlay's monitoring
relation, exactly what an external query front end should be.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, Optional, Tuple

from ..apps.query import QueryClient, QueryResult
from ..core.condition import ConsistencyCondition
from ..core.hashing import NodeId
from ..live.control import DirectoryReply, DirectoryRequest
from ..live.faults import SERVE
from ..live.memory_transport import VIRTUAL_EPOCH
from ..live.runtime import LiveRuntime
from ..live.transport import Address, PeerTable, UdpTransport

__all__ = ["DEFAULT_CLIENT_ID", "OverlayBackend", "memory_backend"]

#: Default observer id: far above any overlay node id (node ids are dense
#: small integers), so the client can never shadow a real participant.
DEFAULT_CLIENT_ID = 999_999_937


class OverlayBackend:
    """Async verified-query facade over one overlay, any fabric."""

    def __init__(
        self,
        condition: ConsistencyCondition,
        introducer: Address,
        *,
        client_id: NodeId = DEFAULT_CLIENT_ID,
        transport_factory=None,
        host: str = "127.0.0.1",
        epoch: float = 0.0,
        clock=None,
        min_monitors: int = 1,
        query_timeout: float = 2.0,
        report_retries: int = 2,
        directory_interval: float = 2.0,
    ) -> None:
        self.condition = condition
        self.client_id = client_id
        self._introducer = introducer
        self._transport_factory = (
            transport_factory
            if transport_factory is not None
            else UdpTransport.create
        )
        self._host = host
        self._epoch = epoch
        self._clock = clock
        self.min_monitors = min_monitors
        self.query_timeout = query_timeout
        self._report_retries = report_retries
        self.directory_interval = directory_interval
        self.peers = PeerTable()
        self.transport = None
        self.runtime: Optional[LiveRuntime] = None
        self.client: Optional[QueryClient] = None
        #: Latest directory, as ``(node, host, port)`` triples.
        self.entries: Tuple[Tuple[NodeId, str, int], ...] = ()
        self._directory_event = asyncio.Event()
        self._refresh_task: Optional[asyncio.Task] = None
        #: Per-subject serialization: QueryClient keys in-flight state by
        #: subject, so two concurrent queries for one subject must run in
        #: turn (the service's cache single-flights the common case away).
        self._subject_locks: Dict[NodeId, asyncio.Lock] = {}
        self.queries = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the transport and fetch an initial peer directory."""
        self.transport = await self._transport_factory(
            self._handle, self._host, 0
        )
        clock = self._clock if self._clock is not None else time.time
        self.runtime = LiveRuntime(
            self.client_id,
            self.transport,
            self.peers,
            random.Random(self.client_id),
            epoch=self._epoch or clock(),
            clock=clock,
        )
        self.client = QueryClient(
            self.client_id,
            self.condition,
            self.runtime,
            min_monitors=self.min_monitors,
            timeout=self.query_timeout,
            report_retries=self._report_retries,
        )
        await self.refresh_directory()
        self._refresh_task = asyncio.create_task(self._refresh_loop())

    async def close(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._refresh_task = None
        if self.client is not None:
            self.client.on_leave(self.runtime.now())
        if self.transport is not None:
            self.transport.close()

    # -- directory ---------------------------------------------------------

    async def refresh_directory(self, *, timeout: float = 1.0) -> bool:
        """Ask the introducer for the directory; True if a reply landed."""
        self._directory_event.clear()
        self.transport.send_to(self._introducer, DirectoryRequest())
        try:
            await asyncio.wait_for(self._directory_event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _refresh_loop(self) -> None:
        while True:
            await asyncio.sleep(self.directory_interval)
            await self.refresh_directory()

    def nodes(self) -> Tuple[NodeId, ...]:
        """Currently-alive overlay node ids, per the latest directory."""
        return self.peers.alive_ids()

    # -- queries -----------------------------------------------------------

    async def query(
        self,
        subject: NodeId,
        *,
        l: Optional[int] = None,
        timeout: Optional[float] = None,
        history: bool = True,
    ) -> QueryResult:
        """Run one verified availability query and await its result."""
        lock = self._subject_locks.get(subject)
        if lock is None:
            lock = self._subject_locks[subject] = asyncio.Lock()
        async with lock:
            self.queries += 1
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()

            def settle(result: QueryResult) -> None:
                if not future.done():
                    future.set_result(result)

            self.client.query(
                subject,
                settle,
                min_monitors=l,
                timeout=timeout,
                history=history,
            )
            return await future

    # -- receive path ------------------------------------------------------

    def _handle(self, message: Any, addr: Address) -> None:
        if isinstance(message, DirectoryReply):
            alive = []
            entries = []
            for entry in message.entries:
                if len(entry) != 3:
                    continue
                node_id, host, port = entry
                self.peers.learn(node_id, (host, port))
                alive.append(node_id)
                entries.append((node_id, host, port))
            self.peers.set_alive(alive)
            self.entries = tuple(entries)
            self._directory_event.set()
        elif self.client is not None:
            self.client.handle_message(message)


def memory_backend(overlay, **kwargs) -> OverlayBackend:
    """An :class:`OverlayBackend` attached to a *running*
    :class:`~repro.live.memory_transport.MemoryOverlay` from inside its
    ``workload`` hook — the socket-free way to serve on the memory fabric
    (``serve_port`` is rejected there): same codec, same introducer
    directory, virtual clock."""
    loop = asyncio.get_running_loop()
    kwargs.setdefault("query_timeout", 2.0)
    return OverlayBackend(
        overlay.condition,
        overlay.introducer.address,
        transport_factory=overlay.network.transport_factory(SERVE),
        host="mem",
        epoch=VIRTUAL_EPOCH,
        clock=loop.time,
        **kwargs,
    )
