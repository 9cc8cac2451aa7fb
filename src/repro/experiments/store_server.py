"""``avmon store serve``: a shared summary-store daemon over HTTP.

One process owns a :class:`~repro.experiments.store_backends.
FilesystemBackend` directory and exposes it as a small named-object
protocol, so any number of sweep workers (local or remote) and serve
front ends share one content-addressed cache through
:class:`~repro.experiments.store_backends.SharedStoreBackend`:

========  ====================  ===========================================
method    target                semantics
========  ====================  ===========================================
GET       /objects              list entries: ``{"entries": [{name, bytes}]}``
GET       /objects/{name}       fetch: ``{"name", "text"}`` or 404
PUT       /objects/{name}       store ``{"text": ...}`` (atomic on disk)
DELETE    /objects/{name}       remove; ``{"deleted": bool}`` or 404
GET       /stat                 totals + request counters
GET       /metrics              obs registry (JSON; ``?format=prometheus``)
GET       /healthz              liveness probe
POST      /compact              sweep stale tmp/corrupt files (see below)
========  ====================  ===========================================

Beyond objects, the daemon is the sweep fabric's coordinator: a
task-lease protocol lets workers on any host lease cells and heartbeat
over HTTP (:class:`~repro.experiments.taskboard.TaskBoard`).  A sweep
names each task by its cell's store key, so two parents sharing one grid
share one task per cell:

========  ====================  ===========================================
POST      /tasks                publish ``{id, payload, key, lease_ttl, attempt,
                                publisher}``; a live id is left as it is
POST      /tasks/claim          ``{worker}`` -> ``{task}`` or ``{task: null}``
POST      /tasks/{id}/beat      ``{worker}``; 409 when the lease was lost
POST      /tasks/{id}/done      ``{worker, persisted, computed, summary?}``;
                                409 dup
POST      /tasks/{id}/failed    ``{worker, error}``
GET       /tasks/events         ``?since=N`` -> ``{cursor, epoch, events}``
GET       /tasks                board listing + per-state counts
========  ====================  ===========================================

With ``auth_token`` set (``--auth-token`` / ``AVMON_STORE_TOKEN``),
every mutating verb (PUT, DELETE, any POST) requires
``Authorization: Bearer <token>`` and replies 401 otherwise; reads stay
open so dashboards and probes keep working.

Object text travels inside a JSON string, so stored bytes round-trip
exactly — the byte-identity contract on summary JSON holds across the
wire.  The HTTP plumbing is the same stdlib-asyncio layer the
availability service uses (:mod:`repro.serve.http`): the daemon is just
another ``service.handle(method, target, body, client, headers)`` behind
it, and the in-memory HTTP client drives it socket-free in tests.

The protocol is deliberately cache-shaped, not database-shaped: objects
are immutable values under content addresses, PUT is idempotent, and a
lost write is at worst a future recomputation.  The task board is soft
state by design — losing the daemon loses leases, not results; the
board's ``epoch`` tells parents that a restarted daemon has forgotten
their tasks.
"""

from __future__ import annotations

import asyncio
import math
import socket
import sys
import threading
import time
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..obs.registry import MetricsRegistry
from .store_backends import FilesystemBackend, StoreBackend, valid_object_name
from .taskboard import TaskBoard

__all__ = ["StoreService", "StoreDaemonThread", "serve_store", "run_store_server"]

#: The legacy counter names ``/stat`` has always reported, in order.
_STAT_COUNTERS = (
    "requests",
    "get_hits",
    "get_misses",
    "puts",
    "deletes",
    "client_errors",
    "server_errors",
)


class StoreService:
    """The object-protocol request handler over one :class:`StoreBackend`.

    Compatible with :func:`repro.serve.http.handle_connection`: requests
    arrive as ``(method, target, parsed_json_body, client, headers)`` and
    leave as ``(status, payload, extra_headers)``.  Backend I/O failures
    surface as 500s with the error text — clients treat those as cache
    misses.

    All counters live in a :class:`repro.obs.registry.MetricsRegistry`
    (deterministic kind) exposed on ``GET /metrics`` as JSON or, with
    ``?format=prometheus``, Prometheus text; ``/stat`` keeps its legacy
    ``counters`` dict shape.
    """

    def __init__(
        self,
        backend: StoreBackend,
        registry: Optional[MetricsRegistry] = None,
        *,
        auth_token: Optional[str] = None,
        clock=time.monotonic,
    ) -> None:
        self.backend = backend
        self.registry = registry if registry is not None else MetricsRegistry()
        self.auth_token = auth_token or None
        self.board = TaskBoard(clock)
        self._counters = {
            name: self.registry.counter(f"store.{name}")
            for name in _STAT_COUNTERS
        }
        self._bytes_in = self.registry.counter("store.bytes_in")
        self._bytes_out = self.registry.counter("store.bytes_out")
        self._auth_rejects = self.registry.counter("store.auth_rejects")
        self._tasks_published = self.registry.counter("store.tasks_published")
        self._tasks_claimed = self.registry.counter("store.tasks_claimed")
        self._tasks_done = self.registry.counter("store.tasks_done")
        self._entry_scans = self.registry.counter("store.entry_scans")
        self._verbs: Dict[str, object] = {}
        #: One ``entries()`` scan feeds both object gauges *and* every
        #: listing until a mutation invalidates it — the two gauges can
        #: never disagree mid-PUT, and a metrics scrape costs at most
        #: one directory scan instead of one per gauge.
        self._entries_cache: Optional[tuple] = None
        self.registry.gauge("store.objects", fn=lambda: len(self._entries()))
        self.registry.gauge(
            "store.object_bytes",
            fn=lambda: sum(e.size for e in self._entries()),
        )

    # -- cached directory view --------------------------------------------

    def _entries(self) -> tuple:
        if self._entries_cache is None:
            self._entries_cache = self.backend.entries()
            self._entry_scans.inc()
        return self._entries_cache

    def _invalidate_entries(self) -> None:
        self._entries_cache = None

    @property
    def counters(self) -> Dict[str, int]:
        """Legacy counters dict, as ``/stat`` has always rendered it."""
        return {name: c.value for name, c in self._counters.items()}

    def _count_verb(self, method: str) -> None:
        counter = self._verbs.get(method)
        if counter is None:
            counter = self._verbs[method] = self.registry.counter(
                f"store.requests_by_verb.{method}"
            )
        counter.inc()

    def _authorized(self, method: str, headers: Dict[str, str]) -> bool:
        if self.auth_token is None or method == "GET":
            return True
        supplied = headers.get("authorization", "")
        return supplied == f"Bearer {self.auth_token}"

    async def handle(
        self,
        method: str,
        target: str,
        body: Optional[dict],
        client: str,
        headers: Dict[str, str],
    ) -> Tuple[int, Union[dict, str], Dict[str, str]]:
        self._counters["requests"].inc()
        self._count_verb(method)
        if not self._authorized(method, headers):
            self._auth_rejects.inc()
            self._counters["client_errors"].inc()
            return 401, {"error": "missing or bad bearer token"}, {}
        try:
            status, payload = self._route(method, target, body)
        except OSError as error:
            self._counters["server_errors"].inc()
            return 500, {"error": f"store backend failure: {error}"}, {}
        if 400 <= status < 500:
            self._counters["client_errors"].inc()
        return status, payload, {}

    def _route(
        self, method: str, target: str, body: Optional[dict]
    ) -> Tuple[int, Union[dict, str]]:
        split = urlsplit(target)
        path = split.path
        if path == "/healthz":
            return 200, {"status": "ok"}
        if path == "/stat":
            entries = self._entries()
            payload = {
                "dir": self.backend.describe(),
                "entries": len(entries),
                "total_bytes": sum(entry.size for entry in entries),
                "counters": self.counters,
            }
            return 200, payload
        if path == "/metrics":
            params = parse_qs(split.query)
            if params.get("format", [""])[-1] == "prometheus":
                return 200, self.registry.render_prometheus()
            return 200, self.registry.to_dict()
        if path == "/compact":
            if method != "POST":
                return 405, {"error": "compaction is POST-only"}
            compact = getattr(self.backend, "compact", None)
            if compact is None:
                return 400, {"error": "backend does not support compaction"}
            tmp_age = 60.0
            if isinstance(body, dict) and isinstance(
                body.get("tmp_age"), (int, float)
            ):
                tmp_age = float(body["tmp_age"])
            result = compact(tmp_age=tmp_age)
            self._invalidate_entries()
            return 200, result
        if path == "/objects":
            if method != "GET":
                return 405, {"error": "listing is GET-only"}
            return 200, {
                "entries": [
                    {"name": entry.name, "bytes": entry.size}
                    for entry in self._entries()
                ]
            }
        if path.startswith("/objects/"):
            return self._route_object(method, path[len("/objects/"):], body)
        if path == "/tasks" or path.startswith("/tasks/"):
            return self._route_tasks(method, path, split.query, body)
        return 404, {"error": f"no route for {path}"}

    def _route_object(
        self, method: str, name: str, body: Optional[dict]
    ) -> Tuple[int, Union[dict, str]]:
        if not valid_object_name(name):
            return 400, {"error": f"illegal object name {name!r}"}
        if method == "GET":
            text = self.backend.get(name)
            if text is None:
                self._counters["get_misses"].inc()
                return 404, {"error": f"no object {name}"}
            self._counters["get_hits"].inc()
            self._bytes_out.inc(len(text))
            return 200, {"name": name, "text": text}
        if method == "PUT":
            if not isinstance(body, dict) or not isinstance(
                body.get("text"), str
            ):
                return 400, {"error": 'PUT body must be {"text": "..."}'}
            self.backend.put(name, body["text"])
            self._invalidate_entries()
            self._counters["puts"].inc()
            self._bytes_in.inc(len(body["text"]))
            return 200, {"stored": name, "bytes": len(body["text"])}
        if method == "DELETE":
            deleted = self.backend.delete(name)
            self._invalidate_entries()
            if not deleted:
                return 404, {"error": f"no object {name}"}
            self._counters["deletes"].inc()
            return 200, {"deleted": True, "name": name}
        return 405, {"error": f"unsupported method {method}"}

    # -- task-lease protocol ----------------------------------------------

    def _route_tasks(
        self, method: str, path: str, query: str, body: Optional[dict]
    ) -> Tuple[int, Union[dict, str]]:
        body = body if isinstance(body, dict) else {}
        if path == "/tasks":
            if method == "GET":
                return 200, {
                    "tasks": self.board.tasks(),
                    "states": self.board.stats(),
                }
            if method == "POST":
                task_id = body.get("id")
                payload = body.get("payload")
                if not isinstance(task_id, str) or not isinstance(payload, str):
                    return 400, {"error": "publish needs string id and payload"}
                try:
                    lease_ttl = float(body.get("lease_ttl", 30.0))
                except (TypeError, ValueError, OverflowError):
                    lease_ttl = math.nan
                # A NaN or infinite TTL would be a lease that never lapses.
                if not 0.0 < lease_ttl < math.inf:
                    return 400, {"error": "lease_ttl must be a finite number > 0"}
                attempt = body.get("attempt", 1)
                if type(attempt) is not int or attempt < 1:
                    return 400, {"error": "attempt must be an integer >= 1"}
                task = self.board.publish(
                    task_id,
                    payload,
                    key=str(body.get("key", "") or ""),
                    lease_ttl=lease_ttl,
                    attempt=attempt,
                    publisher=str(body.get("publisher", "") or ""),
                )
                self._tasks_published.inc()
                return 200, {"published": task.public()}
            return 405, {"error": f"unsupported method {method}"}
        if path == "/tasks/events":
            if method != "GET":
                return 405, {"error": "events is GET-only"}
            params = parse_qs(query)
            try:
                since = int(params.get("since", ["0"])[-1])
            except ValueError:
                return 400, {"error": "since must be an integer"}
            cursor, events = self.board.events_since(since)
            return 200, {
                "cursor": cursor, "epoch": self.board.epoch, "events": events,
            }
        if path == "/tasks/claim":
            if method != "POST":
                return 405, {"error": "claim is POST-only"}
            worker = body.get("worker")
            if not isinstance(worker, str) or not worker:
                return 400, {"error": "claim needs a worker name"}
            task = self.board.claim(worker)
            if task is None:
                return 200, {"task": None}
            self._tasks_claimed.inc()
            return 200, {"task": task.public(with_payload=True)}
        # /tasks/{id}/verb
        parts = path.split("/")
        if len(parts) != 4 or not parts[2]:
            return 404, {"error": f"no route for {path}"}
        _, _, task_id, verb = parts
        if method != "POST":
            return 405, {"error": f"{verb} is POST-only"}
        worker = str(body.get("worker", ""))
        if verb == "beat":
            if self.board.beat(task_id, worker):
                return 200, {"leased": True}
            return 409, {"error": "lease lost", "leased": False}
        if verb == "done":
            result = {
                "persisted": bool(body.get("persisted", False)),
                "computed": bool(body.get("computed", True)),
            }
            if isinstance(body.get("summary"), str):
                result["summary"] = body["summary"]
            if self.board.done(task_id, worker, result):
                self._tasks_done.inc()
                return 200, {"done": True}
            return 409, {"error": "task already settled", "done": False}
        if verb == "failed":
            error = str(body.get("error", ""))
            if self.board.failed(task_id, worker, error):
                return 200, {"failed": True}
            return 409, {"error": "task already settled", "failed": False}
        return 404, {"error": f"unknown task verb {verb!r}"}


async def serve_store(
    backend: StoreBackend,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    auth_token: Optional[str] = None,
):
    """Bind the object protocol on a real socket; returns the asyncio
    server (``server.sockets[0].getsockname()`` has the bound port)."""
    from ..serve.http import serve_http

    return await serve_http(
        StoreService(backend, auth_token=auth_token), host, port
    )


class StoreDaemonThread:
    """The daemon on its own asyncio loop in a helper thread.

    ``with StoreDaemonThread(backend) as daemon: ... daemon.url ...`` —
    for synchronous programs that need a live daemon beside them: the
    local fleet's private coordinator and the socket tests.
    ``port=0`` binds an ephemeral port (read it back from ``port`` /
    ``url`` after :meth:`start`); ``service`` is the in-process
    :class:`StoreService`, task board included.
    """

    def __init__(
        self,
        backend: StoreBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: Optional[str] = None,
    ) -> None:
        self.service = StoreService(backend, auth_token=auth_token)
        self.host = host
        self.port = port
        self._halt: Optional[tuple] = None  # (loop, asyncio.Event) once up
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreDaemonThread":
        # Bound here, not on the loop: a bind error raises in the caller,
        # the port is known on return, and connections made before the
        # loop is up simply wait in the listen queue.
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        up = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve(listener, up)),
            name="avmon-store-daemon",
            daemon=True,
        )
        self._thread.start()
        if not up.wait(10.0):
            raise OSError("store daemon loop failed to start")
        return self

    async def _serve(self, listener: socket.socket, up: threading.Event) -> None:
        from ..serve.http import MAX_REQUEST_BYTES, handle_connection

        connections: dict = {}  # handler task -> its client's writer

        async def on_connection(reader, writer) -> None:
            task = asyncio.current_task()
            connections[task] = writer
            try:
                await handle_connection(self.service, reader, writer)
            finally:
                del connections[task]

        server = await asyncio.start_server(
            on_connection, sock=listener, limit=MAX_REQUEST_BYTES
        )
        halt = asyncio.Event()
        self._halt = (asyncio.get_running_loop(), halt)
        up.set()
        await halt.wait()
        server.close()
        # Hang up on clients still parked on keep-alive connections: each
        # handler reads EOF and returns, so none outlives the loop
        # (cancelling them instead logs noise on Python 3.11).
        for writer in connections.values():
            writer.close()
        if connections:
            await asyncio.wait(list(connections))

    def stop(self) -> None:
        """Close the listener, drain the connection handlers, join."""
        loop, halt = self._halt
        loop.call_soon_threadsafe(halt.set)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise OSError("store daemon thread did not stop")

    def __enter__(self) -> "StoreDaemonThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_store_server(
    root: str,
    host: str = "127.0.0.1",
    port: int = 7780,
    out=sys.stderr,
    *,
    auth_token: Optional[str] = None,
) -> int:
    """Run the daemon until interrupted (the ``avmon store serve`` body)."""
    backend = FilesystemBackend(root)
    with StoreDaemonThread(backend, host, port, auth_token=auth_token) as daemon:
        guarded = " (mutations require the bearer token)" if auth_token else ""
        print(
            f"store: serving {backend.root} on {daemon.url} "
            f"(point workers at it with --cache-dir {daemon.url}; "
            f"Ctrl-C to stop){guarded}",
            file=out,
        )
        threading.Event().wait()  # until KeyboardInterrupt
    return 0
