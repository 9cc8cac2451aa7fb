"""Soft-state sweep coordination for the store daemon.

Two small in-memory structures turn ``avmon store serve`` into a
multi-host sweep coordinator (and, started in-process, into the local
worker fleet's), with an at-least-once, lease-based design that takes
the unreliable-failure-detector stance the paper borrows from Duarte et
al.: suspicion after a missed deadline is enough, late completions are
ignored as duplicates, and losing the daemon loses only soft state —
every durable result lives in the content-addressed store.

:class:`TaskBoard`
    A lease queue of sweep cells.  Parents publish tasks; any worker on
    any host claims one, heartbeats while computing, and reports done or
    failed.  A claimed task whose beats stop past its lease TTL is
    expired back onto the queue (the parent decides whether to retry).
    Every transition is appended to a bounded event log that parents
    drain by cursor.

:class:`CellClaims`
    TTL ownership registry keyed by a cell's store address (its object
    name), so two parents sweeping the same grid through one daemon
    never compute the same cell: the claim winner publishes the task,
    the loser watches the store for the result.  A parent that dies
    simply stops renewing; its claims expire and a surviving parent
    takes the cells over.

Both take an injectable clock for deterministic tests.  Neither touches
disk: the board and claims are exactly as durable as the daemon, which
is the right durability — a restarted daemon means parents re-claim and
republish, and already-persisted cells are store hits.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["Task", "TaskBoard", "CellClaims"]

#: Task lifecycle states.
QUEUED = "queued"
LEASED = "leased"
EXPIRED = "expired"  #: lease lapsed; waits for the parent to republish
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

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
    state: str = QUEUED
    worker: str = ""
    lease_deadline: float = 0.0
    result: Optional[dict] = None

    def public(self, *, with_payload: bool = False) -> dict:
        view = {
            "id": self.id,
            "key": self.key,
            "attempt": self.attempt,
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
    kind: str  #: claimed | done | failed | expired | cancelled
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
        self._events: Deque[_Event] = collections.deque(maxlen=MAX_EVENTS)
        self._next_seq = 0

    # -- internals ---------------------------------------------------------

    def _emit(self, kind: str, task: Task, **fields) -> None:
        self._next_seq += 1
        self._events.append(
            _Event(self._next_seq, kind, task.id,
                   {"key": task.key, "attempt": task.attempt,
                    "worker": task.worker, **fields})
        )

    def expire(self) -> int:
        """Lazily expire leases past their deadline (called per request)."""
        now = self._clock()
        expired = 0
        for task in self._tasks.values():
            if task.state == LEASED and now > task.lease_deadline:
                # Not auto-requeued: the publishing parent sees the
                # ``expired`` event and owns the retry/backoff decision.
                task.state = EXPIRED
                self._emit("expired", task)
                expired += 1
        return expired

    # -- parent side -------------------------------------------------------

    def publish(self, task_id: str, payload: str, *, key: str = "",
                lease_ttl: float = 30.0, attempt: int = 1) -> Task:
        """Enqueue a task (idempotent: republishing an id re-queues it)."""
        task = self._tasks.get(task_id)
        if task is None:
            task = Task(task_id, payload, key=key, lease_ttl=lease_ttl,
                        attempt=attempt)
            self._tasks[task_id] = task
        else:
            task.payload = payload
            task.lease_ttl = lease_ttl
            task.attempt = attempt
            task.state = QUEUED
            task.worker = ""
        if task_id not in self._queue:
            self._queue.append(task_id)
        return task

    def cancel(self, task_id: str) -> bool:
        task = self._tasks.get(task_id)
        if task is None or task.state in (DONE, FAILED, CANCELLED):
            return False
        task.state = CANCELLED
        self._emit("cancelled", task)
        return True

    def cancel_for_key(self, key: str) -> int:
        """Withdraw every live task for a cell (a parent took the claim
        over from a dead one; the dead parent's tasks must not race it)."""
        cancelled = 0
        if not key:
            return 0
        for task in self._tasks.values():
            if task.key == key and task.state in (QUEUED, LEASED):
                task.state = CANCELLED
                self._emit("cancelled", task)
                cancelled += 1
        return cancelled

    def events_since(self, cursor: int, *, prefix: str = "") -> Tuple[int, List[dict]]:
        """Events after *cursor*, optionally filtered to task-id prefix."""
        self.expire()
        out = [
            event.public()
            for event in self._events
            if event.seq > cursor
            and (not prefix or event.task_id.startswith(prefix))
        ]
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
        accepted (at-least-once: the parent dedups by cell index, and
        the store write is idempotent) — only a report from the *wrong*
        worker on a live lease, or on a settled task, is refused.
        """
        self.expire()
        task = self._tasks.get(task_id)
        if task is None or task.state not in (LEASED, EXPIRED, QUEUED):
            return False
        if task.state == LEASED and task.worker != worker:
            return False
        task.state = DONE
        task.worker = worker
        task.result = result
        self._emit("done", task, **(result or {}))
        return True

    def failed(self, task_id: str, worker: str, error: str = "") -> bool:
        self.expire()
        task = self._tasks.get(task_id)
        if task is None or task.state not in (LEASED, EXPIRED, QUEUED):
            return False
        if task.state == LEASED and task.worker != worker:
            return False
        task.state = FAILED
        task.worker = worker
        task.result = {"error": error}
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


@dataclass
class _Claim:
    owner: str
    deadline: float


class CellClaims:
    """TTL ownership of cells, keyed by store object name."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._claims: Dict[str, _Claim] = {}
        #: key -> owner whose claim lapsed there (consumed on re-claim,
        #: so the daemon can tell a takeover from a fresh claim).
        self._expired_owner: Dict[str, str] = {}
        #: How often an expiry has been observed (scraped as a counter).
        self.expired_total = 0

    def _live(self, key: str) -> Optional[_Claim]:
        claim = self._claims.get(key)
        if claim is None:
            return None
        if self._clock() > claim.deadline:
            del self._claims[key]
            self._expired_owner[key] = claim.owner
            self.expired_total += 1
            return None
        return claim

    def take_expired_owner(self, key: str) -> str:
        """The owner whose claim on *key* lapsed, consumed ("" = none)."""
        self._live(key)  # fold in a just-now expiry
        return self._expired_owner.pop(key, "")

    def claim(self, key: str, owner: str, ttl: float) -> Tuple[bool, str]:
        """Try to own *key*; returns ``(granted, current_owner)``.

        Re-claiming a key you already own renews it (idempotent).
        """
        current = self._live(key)
        if current is not None and current.owner != owner:
            return False, current.owner
        self._claims[key] = _Claim(owner, self._clock() + ttl)
        return True, owner

    def renew(self, keys: List[str], owner: str, ttl: float) -> List[str]:
        """Extend every still-owned key; returns the keys actually renewed."""
        renewed = []
        deadline = self._clock() + ttl
        for key in keys:
            current = self._live(key)
            if current is not None and current.owner == owner:
                current.deadline = deadline
                renewed.append(key)
        return renewed

    def release(self, key: str, owner: str) -> bool:
        current = self._live(key)
        if current is None or current.owner != owner:
            return False
        del self._claims[key]
        return True

    def owner_of(self, key: str) -> str:
        current = self._live(key)
        return current.owner if current else ""

    def claims(self) -> List[dict]:
        now = self._clock()
        out = []
        for key in sorted(self._claims):
            claim = self._live(key)  # folds just-lapsed claims into expiry
            if claim is not None:
                out.append(
                    {"key": key, "owner": claim.owner,
                     "ttl_left": round(claim.deadline - now, 3)}
                )
        return out
