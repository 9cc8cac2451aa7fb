"""Local worker fleet: sweep cells survive SIGKILLed workers.

``FLEET`` is the local launcher of the lease protocol ``REMOTE`` speaks
(:mod:`.remote` holds the one state machine).  For the length of one
``execute`` it runs a private store daemon in a helper thread — over the
sweep's own store, or a scratch directory when there is none — spawns
``workers`` children running the ``avmon fleet worker`` claim loop
against it, and drives the same publish / drain / retry loop a remote
parent does.  Cells are deterministic and the store content-addressed,
so a retried cell whose killed owner had already written through is a
read, not a recompute.

What is genuinely local rides the loop's per-iteration hook.  A child
that disappears (SIGKILL, OOM, crash) is noticed by polling process
liveness — no waiting out its lease.  The board's listing names the
task it held; a task's id is its cell's store key, and the cell is
retried with backoff by republishing that key at the next attempt, which
re-queues the task over the dead child's lease.  A child alive but
silent past ``lease_timeout`` has its lease expired by the board like
any remote worker's, and is then SIGKILLed.  Either way a fresh child
takes its place.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import tempfile
from typing import Dict, List, Optional, Sequence, Set

from ..store_backends import FilesystemBackend, SharedStoreBackend, backend_from_spec
from ..store_server import StoreDaemonThread
from ..taskboard import TaskBoard
from .base import Payload, RecordFn, default_jobs, sorted_payloads
from .remote import RemoteWorkerBackend, _SweepRun, _worker_process_entry

__all__ = ["WorkerFleetBackend"]


class _ChaosBoard(TaskBoard):
    """A board that has the worker it grants the Nth lease to killed.

    Killing inside the grant — the daemon is in-process — means the
    victim dies holding its lease however short the cell, so a chaos
    run's death and retry counts are exact, not a race with the poll.
    """

    def __init__(self, after_grants: int, kill) -> None:
        super().__init__()
        self._countdown = after_grants
        self._kill = kill

    def claim(self, worker: str):
        task = super().claim(worker)
        if task is not None:
            self._countdown -= 1
            if self._countdown == 0:
                self._kill(worker)
        return task


class WorkerFleetBackend(RemoteWorkerBackend):
    """N local worker processes leasing cells from an in-process daemon.

    SIGKILLing any worker mid-sweep costs only the in-flight cell (and
    with a write-through store, often not even that).
    """

    name = "FLEET"

    #: Which child claims first is a race; everything else in a local
    #: fleet's lifecycle — spawns, leases, deaths, retries — follows from
    #: the grid and the chaos setting, so it stays deterministic-kind.
    WALL_EVENTS = frozenset({"fleet.remote_attach"})
    SPAWN_EVENT = "fleet.worker_spawned"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_attempts: int = 3,
        retry_backoff: float = 0.25,
        lease_timeout: float = 120.0,
        poll_interval: float = 0.05,
        chaos_kill_after_starts: Optional[int] = None,
    ) -> None:
        self.workers = workers if workers is not None else default_jobs()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        #: Test/chaos hook: SIGKILL the worker granted this many-th lease
        #: (once).  Results must be unaffected — that is the point.
        self.chaos_kill_after_starts = chaos_kill_after_starts
        # ``lease_timeout`` is how long a child may hold a cell in
        # silence: children beat every third of it, and one whose beats
        # stop for all of it is killed.
        super().__init__(
            "fleet",
            max_attempts=max_attempts,
            retry_backoff=retry_backoff,
            lease_ttl=lease_timeout,
            poll_interval=poll_interval,
        )

    def execute(
        self, payloads: Sequence[Payload], record: RecordFn, *, store=None
    ) -> None:
        payloads = sorted_payloads(payloads)
        if not payloads:
            return
        self._event_counts = {}
        children: Dict[str, multiprocessing.Process] = {}
        wedged: Set[str] = set()  # children killed for outliving their lease
        chaos_victims: List[str] = []

        def spawn() -> None:
            name = str(self.stats.workers_spawned)
            child = multiprocessing.get_context().Process(
                target=_worker_process_entry,
                args=(daemon.url, name, self.poll_interval, None, None),
                daemon=True,
            )
            child.start()
            children[name] = child
            self._emit("fleet.worker_spawned", worker=name, pid=child.pid)

        def chaos_kill(name: str) -> None:  # on the daemon thread, mid-grant
            chaos_victims.append(name)
            _kill(children[name])

        def tick(events: List[dict]) -> None:
            for event in events:
                name = event.get("worker")
                if event.get("kind") == "expired" and name in children:
                    wedged.add(name)  # alive but silent: put it down
                    _kill(children[name])
            dead = [name for name, child in children.items() if not child.is_alive()]
            if not dead:
                return
            # The board knows what the dead still held, even a lease
            # granted since this iteration's drain.
            _, board = client.call("GET", "/tasks")
            leased = {
                task["worker"]: task
                for task in board.get("tasks", ())
                if task["state"] == "leased"
            }
            for name in dead:
                child = children.pop(name)
                child.join(timeout=1.0)
                task = leased.get(name)
                index = run.cell_of(task["id"]) if task else None
                attempt = task["attempt"] if task else None
                reason = "lost its lease (no heartbeat)" if name in wedged else "died"
                if name in chaos_victims:
                    self._emit("fleet.chaos_kill", worker=name, cell=index)
                self._emit(
                    "fleet.worker_death",
                    worker=name,
                    reason=reason,
                    cell=index,
                    attempt=attempt,
                    exitcode=child.exitcode,
                )
                if task:
                    run.lapsed[task["id"]] = task["publisher"]
                    run.retry_or_fail(
                        task["id"],
                        attempt,
                        f"fleet worker {name} died while running the cell "
                        f"(exitcode {child.exitcode})",
                    )
                if run.outstanding:
                    spawn()

        def shutdown() -> None:
            for child in children.values():
                _kill(child)
            for child in children.values():
                child.join(timeout=5.0)

        with contextlib.ExitStack() as stack:
            if store is None:
                backend = FilesystemBackend(
                    stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="avmon-fleet-")
                    )
                )
            else:
                # Its own handle on the sweep's store: the daemon thread
                # must not share the parent's connection.
                backend = backend_from_spec(store.spec())
                stack.callback(backend.close)
            daemon = StoreDaemonThread(backend)
            if self.chaos_kill_after_starts is not None:
                daemon.service.board = _ChaosBoard(
                    self.chaos_kill_after_starts, chaos_kill
                )
            stack.enter_context(daemon)
            client = SharedStoreBackend(daemon.url)
            stack.callback(client.close)
            stack.callback(shutdown)  # unwinds first: children before daemon
            run = _SweepRun(self, client, payloads, record)
            for _ in range(min(self.workers, len(payloads))):
                spawn()
            run.run(tick)

    def stats_line(self) -> str:
        stats = self.stats
        return (
            f"fleet: workers={self.workers} "
            f"spawned={stats.workers_spawned} deaths={stats.deaths} "
            f"retries={stats.retries} leases_expired={stats.leases_expired}"
        )


def _kill(process: multiprocessing.Process) -> None:
    """SIGKILL without ceremony (what chaos, lease expiry and shutdown need)."""
    if process.is_alive():
        try:
            os.kill(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
