"""An in-thread ``serve_store`` daemon on an ephemeral loopback port.

The sweep-fabric workload and the store/taskboard unit-cost drivers talk
to the real daemon over real loopback HTTP; it runs on its own asyncio
loop in a helper thread of the benchmark process.
"""

from __future__ import annotations

import asyncio
import cProfile
import threading
import time
from typing import Optional

from repro.experiments.store_backends import FilesystemBackend, SharedStoreBackend
from repro.experiments.store_server import serve_store

__all__ = ["StoreDaemon", "lease_cycle"]


def lease_cycle(client: SharedStoreBackend, task_id: str) -> bool:
    """publish → claim → beat → done over the daemon's HTTP routes;
    True when every step answered 200."""
    worker = {"worker": "avbench"}
    steps = (
        ("/tasks", {"id": task_id, "payload": "cell", "lease_ttl": 30.0}),
        ("/tasks/claim", worker),
        (f"/tasks/{task_id}/beat", worker),
        (f"/tasks/{task_id}/done", {"worker": "avbench", "persisted": True}),
    )
    ok = True
    for path, body in steps:
        status, _payload = client.call("POST", path, body)
        ok = ok and status == 200
    return ok


class StoreDaemon:
    """``with StoreDaemon(root) as daemon: daemon.url`` — loopback daemon."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.url = ""
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._task: Optional[asyncio.Task] = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._error: Optional[Exception] = None

    def start(self) -> "StoreDaemon":
        self._thread.start()
        if not self._started.wait(10.0) or self._error is not None:
            raise OSError(f"store daemon failed to start: {self._error}")
        return self

    def stop(self) -> None:
        # Give server-side handlers of just-closed client connections one
        # beat to see EOF, so no handler outlives the loop noisily.
        time.sleep(0.05)
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise OSError("store daemon thread did not stop")

    def __enter__(self) -> "StoreDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def cpu_profiler(self) -> "_ThreadProfiler":
        """A profiler for the daemon thread, on that thread's CPU clock."""
        return _ThreadProfiler(self._loop)

    async def _serve(self) -> None:
        server = await serve_store(FilesystemBackend(self.root), "127.0.0.1", 0)
        self.url = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"
        self._started.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            server.close()
            await server.wait_closed()

    def _run(self) -> None:
        loop = self._loop
        try:
            self._task = loop.create_task(self._serve())
            loop.run_until_complete(self._task)
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        except Exception as error:  # surfaced by start()
            self._error = error
            self._started.set()
        finally:
            loop.close()


class _ThreadProfiler:
    """cProfile on another thread's asyncio loop, timed by its CPU clock.

    ``cProfile`` only sees the thread that enabled it, so enable/disable
    are marshalled onto the loop's thread.  The CPU clock (not wall)
    keeps the daemon's idle ``select`` out of its self time: what it
    reports is the work it did while the main thread waited on it.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.profile = cProfile.Profile(time.thread_time)

    def _on_loop(self, fn) -> None:
        done = threading.Event()

        def call() -> None:
            fn()
            done.set()

        self._loop.call_soon_threadsafe(call)
        if not done.wait(10.0):
            raise OSError("daemon loop did not answer the profiler")

    def enable(self) -> None:
        self._on_loop(self.profile.enable)

    def disable(self) -> None:
        self._on_loop(self.profile.disable)
