"""Soft-state sweep coordination for the store daemon.

:class:`TaskBoard` turns ``avmon store serve`` into a multi-host sweep
coordinator (and, started in-process, into the local worker fleet's):
a lease queue of sweep cells with an at-least-once design that takes the
unreliable-failure-detector stance the paper borrows from Duarte et al.
Suspicion after a missed deadline is enough, late completions are
ignored as duplicates, and losing the daemon loses only soft state —
every durable result lives in the content-addressed store.

Parents publish tasks; any worker on any host claims one, heartbeats
while computing, and reports done or failed.  A claimed task whose beats
stop past its lease TTL is expired, not re-queued: a parent decides
whether to retry.  Every transition is appended to a bounded event log
that parents drain by cursor.

A sweep names each task by its cell's store key, so the task is the one
record of who is computing a cell, with one deadline.  Publishing is
idempotent: a second parent that publishes a live key follows the task
already there, and a parent's death needs no takeover because its task
outlives it on the board.  Retries are compare-and-set on the attempt,
so two parents that see one expiry re-queue it once.  Each attempt
remembers its publisher and every event names it, which is how exactly
one parent reports a computed cell as its own.

The board takes an injectable clock for deterministic tests.  It never
touches disk: it is exactly as durable as the daemon.  A restarted
daemon boots a board with a new :attr:`TaskBoard.epoch`, parents that
see the epoch change republish their outstanding cells, and cells
already persisted are store hits.
"""

from __future__ import annotations

import collections
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["Task", "TaskBoard"]

#: Task lifecycle states.
QUEUED = "queued"
LEASED = "leased"
EXPIRED = "expired"  #: lease lapsed; waits for a retry at a higher attempt
DONE = "done"
FAILED = "failed"

#: Event-log ceiling: old events fall off the front; a parent that
#: drains slower than this window loses events and must resync from the
#: store (which holds the durable truth anyway).
MAX_EVENTS = 10_000


@dataclass
class Task:
    """One published sweep cell on the board."""

    id: str
    payload: str  #: opaque to the daemon (base64-pickled config)
    key: str = ""  #: the cell's store object name ("" = unkeyed)
    lease_ttl: float = 30.0
    attempt: int = 1
    publisher: str = ""  #: who published the current attempt
    state: str = QUEUED
    worker: str = ""
    lease_deadline: float = 0.0

    def public(self, *, with_payload: bool = False) -> dict:
        view = {
            "id": self.id,
            "key": self.key,
            "attempt": self.attempt,
            "publisher": self.publisher,
            "state": self.state,
            "worker": self.worker,
            "lease_ttl": self.lease_ttl,
        }
        if with_payload:
            view["payload"] = self.payload
        return view


@dataclass
class _Event:
    seq: int
    kind: str  #: claimed | done | failed | expired
    task_id: str
    fields: dict = field(default_factory=dict)

    def public(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, "task": self.task_id,
                **self.fields}


class TaskBoard:
    """Lease queue + event log behind the daemon's ``/tasks`` routes."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._tasks: Dict[str, Task] = {}
        self._queue: Deque[str] = collections.deque()
        #: The leased tasks: all :meth:`expire` has to walk.
        self._leased: Dict[str, Task] = {}
        self._events: Deque[_Event] = collections.deque(maxlen=MAX_EVENTS)
        self._next_seq = 0
        #: Names this board's life: a restarted daemon starts a new board
        #: whose event numbering starts over and which knows no tasks.
        self.epoch = os.urandom(8).hex()

    # -- internals ---------------------------------------------------------

    def _emit(self, kind: str, task: Task, **fields) -> None:
        self._next_seq += 1
        self._events.append(
            _Event(self._next_seq, kind, task.id,
                   {"key": task.key, "attempt": task.attempt,
                    "publisher": task.publisher, "worker": task.worker,
                    **fields})
        )

    def expire(self) -> int:
        """Lazily expire leases past their deadline (called per request)."""
        now = self._clock()
        lapsed = [t for t in self._leased.values() if now > t.lease_deadline]
        for task in lapsed:
            # Not auto-requeued: a parent following the task sees the
            # ``expired`` event and owns the retry/backoff decision.
            del self._leased[task.id]
            task.state = EXPIRED
            self._emit("expired", task)
        return len(lapsed)

    # -- parent side -------------------------------------------------------

    def publish(self, task_id: str, payload: str, *, key: str = "",
                lease_ttl: float = 30.0, attempt: int = 1,
                publisher: str = "") -> Task:
        """Queue *task_id* under *publisher*, or return the task to follow.

        A new or settled (done, failed) id is queued afresh, and so is a
        retry: a publish whose *attempt* is above the task's own.  That
        is how a parent re-leases an expired task, or a leased one whose
        local worker it saw die.  Any other publish — a live id, or an
        expired one at the same attempt — leaves the task as it is and
        returns it, current attempt and publisher included.
        """
        task = self._tasks.get(task_id)
        if (task is not None and task.state not in (DONE, FAILED)
                and attempt <= task.attempt):
            return task
        if task is None or task.state != QUEUED:
            self._queue.append(task_id)
        self._leased.pop(task_id, None)  # a retry replaces a live lease
        task = self._tasks[task_id] = Task(
            task_id, payload, key=key, lease_ttl=lease_ttl, attempt=attempt,
            publisher=publisher,
        )
        return task

    def events_since(self, cursor: int) -> Tuple[int, List[dict]]:
        """Every event after *cursor*, and the cursor to pass next."""
        self.expire()
        out = [event.public() for event in self._events if event.seq > cursor]
        return self._next_seq, out

    # -- worker side -------------------------------------------------------

    def claim(self, worker: str) -> Optional[Task]:
        """Lease the oldest queued task to *worker* (None = board idle)."""
        self.expire()
        while self._queue:
            task_id = self._queue.popleft()
            task = self._tasks.get(task_id)
            if task is None or task.state != QUEUED:
                continue
            task.state = LEASED
            task.worker = worker
            task.lease_deadline = self._clock() + task.lease_ttl
            self._leased[task_id] = task
            self._emit("claimed", task)
            return task
        return None

    def beat(self, task_id: str, worker: str) -> bool:
        """Extend the lease; False = lease lost (stop working on it)."""
        self.expire()
        task = self._tasks.get(task_id)
        if task is None or task.state != LEASED or task.worker != worker:
            return False
        task.lease_deadline = self._clock() + task.lease_ttl
        return True

    def done(self, task_id: str, worker: str, result: Optional[dict] = None) -> bool:
        """Report completion; False = the report cannot be accepted.

        A straggler whose lease expired but who finished anyway is still
        accepted (at-least-once: the parent dedups by store key, and
        the store write is idempotent) — only a report from the *wrong*
        worker on a live lease, or on a settled task, is refused.
        """
        self.expire()
        task = self._tasks.get(task_id)
        if task is None or task.state not in (LEASED, EXPIRED, QUEUED):
            return False
        if task.state == LEASED and task.worker != worker:
            return False
        self._leased.pop(task_id, None)
        task.state = DONE
        task.worker = worker
        self._emit("done", task, **(result or {}))
        return True

    def failed(self, task_id: str, worker: str, error: str = "") -> bool:
        self.expire()
        task = self._tasks.get(task_id)
        if task is None or task.state not in (LEASED, EXPIRED, QUEUED):
            return False
        if task.state == LEASED and task.worker != worker:
            return False
        self._leased.pop(task_id, None)
        task.state = FAILED
        task.worker = worker
        self._emit("failed", task, error=error)
        return True

    # -- inspection --------------------------------------------------------

    def tasks(self) -> List[dict]:
        self.expire()
        return [self._tasks[tid].public() for tid in sorted(self._tasks)]

    def stats(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for task in self._tasks.values():
            counts[task.state] = counts.get(task.state, 0) + 1
        return counts
