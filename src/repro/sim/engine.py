"""Discrete-event simulation engine.

A minimal but complete event scheduler: a binary heap of timestamped
callbacks with stable FIFO ordering among simultaneous events, O(1)
cancellation through handles, and bounded runs (`run_until`).  The paper's
evaluation is a trace-driven discrete-event simulation (Section 5); this is
the substrate it runs on.

Design notes
------------

* Events scheduled for the same instant fire in scheduling order (a sequence
  counter breaks heap ties), which keeps runs deterministic for a fixed seed.
* Every heap entry is a 4-tuple.  :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` return a cancellable :class:`EventHandle`
  and push ``(time, seq, handle, None)``.  :meth:`Simulator.schedule_call` /
  :meth:`Simulator.schedule_call_at` are the allocation-lean fast path for
  the overwhelmingly common never-cancelled events (message deliveries,
  periodic ticks): they push ``(time, seq, fn, args)`` — no handle object,
  no closure — and return nothing.  Both entry kinds carry ``fn(*args)``
  directly, so callers pass bound methods plus arguments instead of
  allocating a lambda per event.  The heap's tie-break never reaches the
  third element (``seq`` is unique), so the two shapes coexist safely.
* Cancellation marks the handle and leaves the entry in the heap; the pop
  loop discards dead entries.  This keeps cancel O(1) — important because
  every churn transition cancels its predecessor.  When dead entries exceed
  half the queue the heap is compacted *in place* (``_queue`` keeps its
  identity, so hot-path callers may cache a reference to it), so multi-hour
  runs whose cancels outpace their pops no longer grow the heap without
  bound.
* ``Network.send`` pushes delivery entries onto ``_queue`` directly (see
  :mod:`repro.net.network`); the entry layout above and the queue's stable
  identity are the contract it relies on.
* An event known when scheduled to do nothing (a NOTIFY whose receiver
  already holds the pair) is *elided* (:meth:`Simulator.elide_at`): no heap
  entry, pop or call, yet it counts as one processed event once a window
  reaches its time, so ``processed_events`` keeps its meaning while
  ``pending_events`` and ``heap_compactions`` see only queued entries.
  Elided times wait in ``_elided`` (stable identity; the network's send
  closure appends to it and drains it at ``_elided_cap``), and a drain folds
  the reached ones into a due count, so it holds about one latency window.
* The engine knows nothing about nodes or networks; higher layers compose it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

__all__ = ["EventHandle", "Simulator"]

#: Compaction never triggers below this many dead entries: rebuilding a tiny
#: heap costs more than carrying a handful of corpses to their pop.
_COMPACT_MIN_DEAD = 64

#: ``_elided`` is drained of reached times at this length (or at twice what
#: the last drain left in flight, if that is more).
_ELIDED_DRAIN_AT = 4096


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"],
    ) -> None:
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        self.cancelled = True
        live = self.callback is not None
        self.callback = None  # release captured state eagerly
        self.args = ()
        sim = self._sim
        self._sim = None
        if live and sim is not None:
            sim._note_cancelled()


class Simulator:
    """Priority-queue discrete-event scheduler."""

    __slots__ = (
        "now",
        "_queue",
        "_counter",
        "_processed",
        "_dead",
        "_compactions",
        "_elided",
        "_elided_due",
        "_elided_cap",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time, in seconds (read-only for callers).
        self.now = start_time
        self._queue: List[tuple] = []
        self._counter = itertools.count()
        self._processed = 0
        self._dead = 0
        self._compactions = 0
        #: Elided event times not yet reached, and the count of reached ones
        #: not yet in ``_processed`` (see the module docstring).
        self._elided: List[float] = []
        self._elided_due = 0
        self._elided_cap = _ELIDED_DRAIN_AT

    @property
    def processed_events(self) -> int:
        """Total events executed so far, elided ones included (diagnostics).

        Updated when a run returns: read mid-window, it is the window's start.
        """
        return self._processed

    @property
    def heap_compactions(self) -> int:
        """In-place heap compactions performed so far (diagnostics)."""
        return self._compactions

    def pending_events(self) -> int:
        """Events still queued, including cancelled ones not yet reaped."""
        return len(self._queue)

    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying the heap (diagnostics/tests)."""
        return self._dead

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Run ``callback(*args)`` after *delay* seconds; cancellable."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        handle = EventHandle(callback, args, self)
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), handle, None)
        )
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated time *time*."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        handle = EventHandle(callback, args, self)
        heapq.heappush(self._queue, (time, next(self._counter), handle, None))
        return handle

    def schedule_call(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Fast path of :meth:`schedule` for events that are never cancelled.

        No handle is allocated (and none returned): the heap entry carries
        the callable and its arguments directly.  Use for message delivery
        and other fire-and-forget work; use :meth:`schedule` when the caller
        might need to cancel.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), fn, args)
        )

    def schedule_call_at(self, time: float, fn: Callable[..., None], *args) -> None:
        """Absolute-time variant of :meth:`schedule_call`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        heapq.heappush(self._queue, (time, next(self._counter), fn, args))

    def elide_at(self, time: float) -> None:
        """Count a no-op event at absolute *time* without queueing it.

        The first :meth:`run_until` that reaches *time*, or :meth:`run_all`,
        adds it to ``processed_events``.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        elided = self._elided
        elided.append(time)
        if len(elided) >= self._elided_cap:
            self._drain_elided(self.now)

    def _drain_elided(self, until: float) -> None:
        """Move buffered elided times ``<= until`` into the due count."""
        elided = self._elided
        waiting = [time for time in elided if time > until]
        self._elided_due += len(elided) - len(waiting)
        elided[:] = waiting
        self._elided_cap = max(_ELIDED_DRAIN_AT, 2 * len(waiting))

    def _settle_elided(self, until: float) -> int:
        """Take the count of elided events reached by *until*."""
        self._drain_elided(until)
        due, self._elided_due = self._elided_due, 0
        return due

    # -- cancellation bookkeeping ------------------------------------------

    def _note_cancelled(self) -> None:
        """One handle died; compact the heap once corpses pass 50 %.

        Compaction is in place — ``_queue`` keeps its identity — so callers
        that cache the queue reference (the network's send fast path) stay
        valid across compactions.
        """
        dead = self._dead + 1
        queue = self._queue
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(queue):
            queue[:] = [
                entry
                for entry in queue
                if entry[3] is not None or not entry[2].cancelled
            ]
            heapq.heapify(queue)
            self._dead = 0
            self._compactions += 1
        else:
            self._dead = dead

    # -- execution ---------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Execute all events with timestamp <= *end_time*, then stop.

        The clock is left at *end_time* even if the queue drains earlier, so
        back-to-back windows compose cleanly.  Elided events <= *end_time*
        are counted once the window completes (an aborted one leaves them).
        """
        if end_time < self.now:
            raise ValueError(
                f"end_time {end_time} precedes current time {self.now}"
            )
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        try:
            while queue and queue[0][0] <= end_time:
                time, _, fn, args = pop(queue)
                if args is None:
                    handle = fn
                    if handle.cancelled:
                        self._dead -= 1
                        continue
                    fn = handle.callback
                    args = handle.args
                    handle.callback = None
                    handle.args = ()
                    handle._sim = None
                self.now = time
                executed += 1
                fn(*args)
        finally:
            # Added as a delta so a reentrant run_until inside a callback
            # keeps its own counts.
            self._processed += executed
        self._processed += self._settle_elided(end_time)
        self.now = end_time

    def run(self, duration: float) -> None:
        """Convenience wrapper: run for *duration* seconds from now."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.run_until(self.now + duration)

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Drain the queue entirely (tests); returns events executed.

        Raises RuntimeError if more than *max_events* fire, which catches
        accidental self-perpetuating schedules in unit tests.  Elided events
        are counted once the queue is empty.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _, fn, args = pop(queue)
            if args is None:
                handle = fn
                if handle.cancelled:
                    self._dead -= 1
                    continue
                fn = handle.callback
                args = handle.args
                handle.callback = None
                handle.args = ()
                handle._sim = None
            self.now = time
            self._processed += 1
            executed += 1
            if executed > max_events:
                raise RuntimeError(f"run_all exceeded {max_events} events")
            fn(*args)
        elided = self._settle_elided(float("inf"))
        self._processed += elided
        return executed + elided

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={len(self._queue)})"
