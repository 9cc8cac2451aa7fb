"""The one lease machine: sweep cells leased from the store daemon.

Every fleet backend runs this orchestration — lease, heartbeat, expire,
retry with exponential backoff, deterministic failures failed fast,
at-least-once delivery deduped by the orchestrator — against the store
daemon's task board (``avmon store serve``).  ``REMOTE`` points it at a
daemon workers on *any host* have attached to:

    host A   avmon store serve --dir /data/cache --port 7780
    host B   avmon fleet worker --attach http://hostA:7780
    host C   avmon fleet worker --attach http://hostA:7780
    host D   avmon sweep ... --backend remote --cache-dir http://hostA:7780

``FLEET`` (:mod:`.fleet`) starts a private daemon in-process and spawns
the same workers as local children.

The parent never talks to workers directly.  It publishes one task per
cell (the config pickled into the payload), drains the board's event log
by cursor, and decides from what it sees: ``expired`` is a worker death
(retry with backoff until the policy is exhausted), ``failed`` is a
deterministic bug (fail fast, no retry), ``done`` is recorded once per
cell no matter how many stragglers report.

Cross-parent coordination rides the same daemon.  Before publishing, the
parent claims each cell's *store address* (its object name) with a TTL.
A granted claim means "I publish this cell"; a denied claim means some
other parent sweeping an overlapping grid already owns it, so this
parent just watches the store and adopts the summary when it appears.
A parent that dies stops renewing; its claims lapse, the survivor's next
claim attempt is granted (the daemon cancels the dead parent's orphaned
tasks), and the sweep completes anyway.  ``fleet.cell_done`` is emitted
only for cells this parent's own tasks computed and always carries the
store key, so concatenating every parent's journal and counting
duplicate keys verifies that no cell was computed twice.

The payloads travel as pickles, so a worker must trust its daemon; the
daemon's ``--auth-token`` gates who can publish (all mutating verbs
require the bearer token), which is the trust boundary.
"""

from __future__ import annotations

import base64
import contextlib
import heapq
import os
import pickle
import socket
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple
from urllib.parse import quote

from .base import ExecutionBackend, Payload, RecordFn, sorted_payloads

__all__ = ["RemoteWorkerBackend", "RetryPolicy", "FleetStats", "run_fleet_worker"]


def _default_identity(role: str) -> str:
    """A name unique enough across hosts, safe in URL paths unquoted."""
    host = socket.gethostname() or "host"
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in host)
    return f"{role}-{safe}-{os.getpid()}"


def _encode_config(config) -> str:
    return base64.b64encode(
        pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_config(payload: str):
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry semantics: how many attempts, how long between them."""

    max_attempts: int = 3
    backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def exhausted(self, attempt: int) -> bool:
        """Whether a failure on *attempt* ends the cell (no retry left)."""
        return attempt >= self.max_attempts

    def delay(self, attempt: int) -> float:
        """Backoff before re-dispatching after a failure on *attempt*.

        The first retry (after attempt 1) waits exactly ``backoff``;
        each further retry doubles it: ``backoff * 2**(attempt - 1)``.
        """
        return self.backoff * (2 ** (attempt - 1))


@dataclass(frozen=True)
class FleetStats:
    """Operational tallies of one sweep (reported, never gated on)."""

    workers_spawned: int = 0
    deaths: int = 0
    retries: int = 0
    leases_expired: int = 0


class RemoteWorkerBackend(ExecutionBackend):
    """Sweep through network-attached workers leasing cells from the daemon.

    Requires a shared store (``--cache-dir http://host:port``): the same
    daemon that holds the summaries is the coordinator, so there is no
    second service to deploy and the durable truth (the store) and the
    soft state (leases, claims) cannot point at different places.
    """

    name = "REMOTE"

    #: Event names whose counts depend on wall-clock timing; they land in
    #: the registry as wall-kind so deterministic snapshots stay
    #: byte-equal.  Every remote lifecycle count depends on such races —
    #: which worker polls first, whether a sibling parent wins a claim.
    WALL_EVENTS: FrozenSet[str] = frozenset(
        {
            "fleet.remote_attach",
            "fleet.lease_granted",
            "fleet.lease_expired",
            "fleet.retry",
            "fleet.cell_done",
            "fleet.cell_failed",
            "fleet.cell_adopted",
            "fleet.claim_granted",
            "fleet.claim_denied",
            "fleet.claim_expired",
            "fleet.claim_lost",
        }
    )

    #: The event that counts as "a worker joined" in :attr:`stats`:
    #: remote workers are first seen when they claim a cell.
    SPAWN_EVENT = "fleet.remote_attach"

    def __init__(
        self,
        owner: Optional[str] = None,
        *,
        max_attempts: int = 3,
        retry_backoff: float = 0.25,
        lease_ttl: float = 30.0,
        claim_ttl: Optional[float] = None,
        poll_interval: float = 0.2,
        adopt_interval: Optional[float] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.owner = owner if owner else _default_identity("parent")
        self.policy = RetryPolicy(max_attempts, retry_backoff)
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.lease_ttl = lease_ttl
        #: Claims must outlive the renewal cadence comfortably; twice the
        #: task lease is a sane default for both knobs to scale together.
        self.claim_ttl = claim_ttl if claim_ttl is not None else 2.0 * lease_ttl
        self.poll_interval = poll_interval
        #: How often watched (other-parent-owned) cells are checked for
        #: adoption or claim takeover.
        self.adopt_interval = (
            adopt_interval
            if adopt_interval is not None
            else max(1.0, 5.0 * poll_interval)
        )
        #: Per-execute lifecycle event counts: the one source of truth
        #: for :attr:`stats` and :meth:`stats_line`, so the stderr tally,
        #: the programmatic tallies and the journal cannot disagree.
        self._event_counts: Dict[str, int] = {}

    # -- plumbing ----------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        """One lifecycle event: count it, mirror it to the obs wiring."""
        self._event_counts[event] = self._event_counts.get(event, 0) + 1
        registry = self.obs_registry
        if registry is not None:
            from ...obs.registry import DETERMINISTIC, WALL

            kind = WALL if event in self.WALL_EVENTS else DETERMINISTIC
            registry.counter(event, kind).inc()
        journal = self.obs_journal
        if journal is not None:
            journal.emit(event, **fields)

    @property
    def stats(self) -> FleetStats:
        count = self._event_counts.get
        return FleetStats(
            workers_spawned=count(self.SPAWN_EVENT, 0),
            deaths=count("fleet.worker_death", 0),
            retries=count("fleet.retry", 0),
            leases_expired=count("fleet.lease_expired", 0),
        )

    @staticmethod
    def _coordinator(store):
        """The store's shared backend, which doubles as the coordinator."""
        backend = getattr(store, "backend", None)
        call = getattr(backend, "call", None)
        if store is None or call is None:
            raise ValueError(
                "the REMOTE backend coordinates through the store daemon; "
                "run the sweep with --cache-dir http://host:port "
                "(an `avmon store serve` URL), not a local directory"
            )
        return backend

    def execute(
        self, payloads: Sequence[Payload], record: RecordFn, *, store=None
    ) -> None:
        payloads = sorted_payloads(payloads)
        if not payloads:
            return
        coordinator = self._coordinator(store)
        self._event_counts = {}
        _SweepRun(self, coordinator, payloads, record).run()

    # -- reporting ---------------------------------------------------------

    def stats_line(self) -> str:
        counts = self._event_counts
        return (
            f"remote: workers={counts.get('fleet.remote_attach', 0)} "
            f"done={counts.get('fleet.cell_done', 0)} "
            f"adopted={counts.get('fleet.cell_adopted', 0)} "
            f"retries={counts.get('fleet.retry', 0)} "
            f"leases_expired={counts.get('fleet.lease_expired', 0)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(owner={self.owner!r}, "
            f"max_attempts={self.max_attempts})"
        )


def _parse_summary(text):
    """A summary from its stored JSON; absent or unparseable is a miss."""
    from ..summary import SimulationSummary

    if not isinstance(text, str):
        return None
    try:
        return SimulationSummary.from_json(text)
    except Exception:  # noqa: BLE001 — a corrupt entry is recomputed
        return None


class _SweepRun:
    """One ``execute``: the lease/expire/retry state of a sweep's cells.

    *fleet* supplies the knobs (owner, TTLs, retry policy) and the
    ``_emit`` sink; *coordinator* is a :class:`~repro.experiments.
    store_backends.SharedStoreBackend` on the daemon holding the board.
    """

    def __init__(self, fleet, coordinator, payloads, record: RecordFn) -> None:
        from ..store import SummaryStore, config_key

        self.fleet = fleet
        self.emit = fleet._emit
        self.coordinator = coordinator
        self.record = record
        self.owner = fleet.owner
        self.configs = dict(payloads)
        self.keys = {
            index: SummaryStore.name_for(config_key(config))
            for index, config in payloads
        }
        self.outstanding: Set[int] = set(self.configs)
        self.mine: Set[int] = set()
        self.watched: Set[int] = set()
        self.attempts: Dict[int, int] = {}
        self.retry_heap: List[Tuple[float, int, int]] = []  # (ready, index, attempt)
        self.workers_seen: Set[str] = set()
        self.cursor = 0
        self.events_path = (
            f"/tasks/events?prefix={quote(self.owner + ':', safe='')}&since="
        )

    # -- daemon calls ------------------------------------------------------

    def publish(self, index: int, attempt: int) -> None:
        self.attempts[index] = attempt
        self.coordinator.call(
            "POST",
            "/tasks",
            {
                "id": f"{self.owner}:{index}",
                "payload": _encode_config(self.configs[index]),
                "key": self.keys[index],
                "lease_ttl": self.fleet.lease_ttl,
                "attempt": attempt,
            },
        )

    def claim(self, index: int, *, takeover: bool) -> Optional[str]:
        """Try to own *index*: publish it if granted (None returned), else
        watch it (the holder's name returned)."""
        key = self.keys[index]
        _, response = self.coordinator.call(
            "POST",
            "/claims/claim",
            {"key": key, "owner": self.owner, "ttl": self.fleet.claim_ttl},
        )
        if not response.get("granted"):
            self.watched.add(index)
            return str(response.get("owner", ""))
        if takeover:
            # The owner's claim lapsed (it died or hung): the daemon
            # granted us the takeover and cancelled its orphaned tasks.
            self.emit("fleet.claim_expired", cell=index, key=key)
        self.emit("fleet.claim_granted", cell=index, key=key, takeover=takeover)
        self.watched.discard(index)
        self.mine.add(index)
        self.publish(index, 1)
        return None

    def fetch_summary(self, index: int):
        """Read the cell's summary straight off the store (no counters)."""
        return _parse_summary(self.coordinator.get(self.keys[index]))

    # -- decisions ---------------------------------------------------------

    def finish(self, index: int) -> None:
        self.outstanding.discard(index)
        self.mine.discard(index)
        self.watched.discard(index)

    def retry_pending(self, index: int) -> bool:
        """Whether a failure of *index* is already waiting out its backoff."""
        return any(entry[1] == index for entry in self.retry_heap)

    def retry_or_fail(self, index: int, attempt: int, reason: str) -> None:
        policy = self.fleet.policy
        if policy.exhausted(attempt):
            error = f"{reason}; gave up after {attempt} attempts"
            self.record(index, None, error, attempts=attempt)
            self.emit("fleet.cell_failed", cell=index, attempts=attempt)
            self.finish(index)
            return
        delay = policy.delay(attempt)
        heapq.heappush(
            self.retry_heap, (time.monotonic() + delay, index, attempt + 1)
        )
        self.emit(
            "fleet.retry", cell=index, attempt=attempt + 1, delay_s=round(delay, 6)
        )

    @staticmethod
    def cell_of(task_id) -> Optional[int]:
        """The cell index behind a board task id (None = not one of ours)."""
        try:
            return int(str(task_id).rsplit(":", 1)[1])
        except (IndexError, ValueError):
            return None

    def handle_event(self, event: dict) -> None:
        index = self.cell_of(event.get("task"))
        if index not in self.outstanding:
            return  # straggler for a settled cell: at-least-once dedup
        kind = event.get("kind")
        attempt = int(event.get("attempt", self.attempts.get(index, 1)))
        worker = str(event.get("worker", ""))
        if kind == "claimed":
            if worker and worker not in self.workers_seen:
                self.workers_seen.add(worker)
                self.emit("fleet.remote_attach", worker=worker)
            self.emit(
                "fleet.lease_granted", worker=worker, cell=index, attempt=attempt
            )
            return
        if index not in self.mine:
            return  # we lost this cell's claim; the watcher owns it now
        if attempt < self.attempts.get(index, 1):
            return  # stale event from a superseded attempt
        if kind == "done":
            summary = _parse_summary(event.get("summary"))
            persisted = bool(event.get("persisted"))
            if summary is None:
                # Whatever the event said, a summary served straight
                # off the store is by definition persisted.
                summary = self.fetch_summary(index)
                persisted = summary is not None
            if summary is None:
                # The worker said done but neither the event nor the
                # store has the summary (e.g. its write-through failed
                # and the inline copy was mangled): treat like a death.
                self.retry_or_fail(
                    index,
                    attempt,
                    f"fleet worker {worker} reported an unfetchable "
                    f"result for cell {index}",
                )
                return
            self.emit(
                "fleet.cell_done",
                worker=worker,
                cell=index,
                attempt=attempt,
                persisted=persisted,
                key=self.keys[index],
            )
            self.record(index, summary, None, persisted=persisted, attempts=attempt)
            self.finish(index)
        elif kind == "failed":
            # Deterministic failure: identical code on identical input
            # raises identically — no retry, keep the traceback.
            error = str(event.get("error", "")) or "fleet worker failure"
            self.record(index, None, error, attempts=attempt)
            self.emit("fleet.cell_failed", cell=index, attempts=attempt)
            self.finish(index)
        elif kind == "expired" and not self.retry_pending(index):
            # The worker went silent past its lease: suspicion is enough
            # (unreliable failure detector), a late completion is deduped
            # as a straggler.  With a retry already pending, this is the
            # lease of a local worker whose death was noticed first.
            self.emit(
                "fleet.lease_expired", worker=worker, cell=index, attempt=attempt
            )
            self.retry_or_fail(
                index,
                attempt,
                f"fleet worker {worker} lost its lease on cell {index} "
                f"(no heartbeat)",
            )
        elif kind == "cancelled":
            # Another parent took the claim over (it judged us dead —
            # e.g. we stalled past the claim TTL).  It owns the cell
            # now; demote ourselves to watching its result.
            self.mine.discard(index)
            self.watched.add(index)
            self.emit("fleet.claim_lost", cell=index, key=self.keys[index])

    def drain_events(self) -> List[dict]:
        """Apply every board event since the cursor; returns them."""
        _, response = self.coordinator.call(
            "GET", self.events_path + str(self.cursor)
        )
        self.cursor = int(response.get("cursor", self.cursor))
        events = list(response.get("events", ()))
        for event in events:
            self.handle_event(event)
        return events

    def renew_claims(self) -> None:
        held = sorted(self.keys[index] for index in self.mine)
        if not held:
            return
        _, response = self.coordinator.call(
            "POST",
            "/claims/renew",
            {"keys": held, "owner": self.owner, "ttl": self.fleet.claim_ttl},
        )
        renewed = set(response.get("renewed", ()))
        for index in sorted(self.mine):
            if self.keys[index] not in renewed:
                self.mine.discard(index)
                self.watched.add(index)
                self.emit("fleet.claim_lost", cell=index, key=self.keys[index])

    def poll_watched(self) -> None:
        for index in sorted(self.watched & self.outstanding):
            summary = self.fetch_summary(index)
            if summary is None:
                self.claim(index, takeover=True)
                continue
            # The owning parent's worker computed it; adopt the stored
            # bytes.  Deliberately NOT a ``cell_done``: only the
            # computing parent emits that, so duplicate keys across
            # journals mean duplicate computation.
            self.emit("fleet.cell_adopted", cell=index, key=self.keys[index])
            self.record(index, summary, None, persisted=True)
            self.finish(index)

    # -- the loop ----------------------------------------------------------

    def run(self, tick: Optional[Callable[[List[dict]], None]] = None) -> None:
        """Claim, publish, and poll until every cell is settled.

        *tick* is called once per iteration with the board events that
        iteration applied — the seam for what only a launcher of *local*
        workers can do (reap and respawn its children).
        """
        fleet = self.fleet
        # Claim every cell up front: winners publish, losers watch.
        for index in sorted(self.configs):
            holder = self.claim(index, takeover=False)
            if holder is not None:
                self.emit(
                    "fleet.claim_denied",
                    cell=index,
                    key=self.keys[index],
                    owner=holder,
                )
        last_renew = time.monotonic()
        last_adopt = 0.0
        renew_every = max(fleet.claim_ttl / 3.0, 0.05)
        try:
            while self.outstanding:
                events = self.drain_events()
                if tick is not None:
                    tick(events)
                now = time.monotonic()
                while self.retry_heap and self.retry_heap[0][0] <= now:
                    _, index, attempt = heapq.heappop(self.retry_heap)
                    if index in self.mine and index in self.outstanding:
                        self.publish(index, attempt)
                if now - last_renew >= renew_every:
                    self.renew_claims()
                    last_renew = now
                if (
                    self.watched & self.outstanding
                    and now - last_adopt >= fleet.adopt_interval
                ):
                    self.poll_watched()
                    last_adopt = now
                if self.outstanding:
                    time.sleep(fleet.poll_interval)
        finally:
            # Best-effort claim release so a sibling parent can finish
            # cells we abandoned (e.g. the sweep was interrupted).
            for key in sorted(self.keys[index] for index in self.mine):
                try:
                    self.coordinator.call(
                        "POST", "/claims/release", {"key": key, "owner": self.owner}
                    )
                except OSError:
                    break


# -- the worker side -------------------------------------------------------


def _run_task(backend, task: dict, name: str) -> None:
    """Lease held: heartbeat while computing, write through, report."""
    import threading

    from ..runner import run_simulation
    from ..store_backends import SharedStoreBackend
    from ..summary import summarize

    task_id = str(task["id"])
    key = str(task.get("key", "") or "")
    lease_ttl = float(task.get("lease_ttl", 30.0))
    beat_every = max(lease_ttl / 3.0, 0.05)
    stop_beats = threading.Event()
    # The pump runs beside the compute thread, so it beats over its own
    # connection: one keep-alive socket carries one request at a time.
    beater = SharedStoreBackend(backend.url, auth_token=backend.auth_token)

    def pump() -> None:
        with contextlib.closing(beater):
            while not stop_beats.wait(beat_every):
                try:
                    status, _ = beater.call(
                        "POST", f"/tasks/{task_id}/beat", {"worker": name}
                    )
                except OSError:
                    continue  # daemon briefly unreachable; keep computing
                if status != 200:
                    # Lease lost.  Keep computing anyway: the board
                    # accepts a straggler's ``done`` (at-least-once) and
                    # the store write is idempotent, so finished work is
                    # never thrown away.
                    return

    beats = threading.Thread(target=pump, daemon=True)
    beats.start()
    try:
        config = _decode_config(str(task["payload"]))
        summary = _parse_summary(backend.get(key)) if key else None
        persisted = summary is not None
        if summary is None:
            summary = summarize(run_simulation(config))
            if key:
                try:
                    backend.put(key, summary.to_json())
                    persisted = True
                except OSError:
                    persisted = False
        body = {"worker": name, "persisted": persisted}
        if not persisted:
            body["summary"] = summary.to_json()
        backend.call("POST", f"/tasks/{task_id}/done", body)
    except Exception:  # noqa: BLE001 — deterministic failure: report it
        try:
            backend.call(
                "POST",
                f"/tasks/{task_id}/failed",
                {"worker": name, "error": traceback.format_exc()},
            )
        except OSError:
            pass
    finally:
        stop_beats.set()


def _worker_loop(
    url: str,
    name: str,
    poll_interval: float,
    max_idle: Optional[float],
    auth_token: Optional[str],
    out,
) -> int:
    """One attached worker: claim, compute, report, repeat."""
    from ..store_backends import SharedStoreBackend

    backend = SharedStoreBackend(url, auth_token=auth_token)
    completed = 0
    idle_since = time.monotonic()
    while True:
        try:
            status, response = backend.call(
                "POST", "/tasks/claim", {"worker": name}
            )
        except OSError:
            # Daemon down or restarting: back off and retry attachment —
            # a worker outliving its daemon is the normal deploy order.
            time.sleep(max(poll_interval, 0.5))
            continue
        task = response.get("task") if status == 200 else None
        if not task:
            if (
                max_idle is not None
                and time.monotonic() - idle_since >= max_idle
            ):
                print(
                    f"fleet worker {name}: idle for {max_idle:g}s; exiting "
                    f"({completed} cells computed)",
                    file=out,
                    flush=True,
                )
                return completed
            time.sleep(poll_interval)
            continue
        _run_task(backend, task, name)
        completed += 1
        idle_since = time.monotonic()


def _worker_process_entry(
    url: str,
    name: str,
    poll_interval: float,
    max_idle: Optional[float],
    auth_token: Optional[str],
) -> None:
    import signal
    import sys

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_loop(url, name, poll_interval, max_idle, auth_token, sys.stderr)


def run_fleet_worker(
    url: str,
    *,
    workers: int = 1,
    poll_interval: float = 0.5,
    max_idle: Optional[float] = None,
    auth_token: Optional[str] = None,
    name: Optional[str] = None,
    out=None,
) -> int:
    """The ``avmon fleet worker --attach URL`` body.

    With ``workers == 1`` the claim loop runs in this process (Ctrl-C
    stops it); with more, that many child processes each run their own
    loop and the parent waits for all of them (they only exit on their
    own when ``max_idle`` is set).
    """
    import sys

    out = out if out is not None else sys.stderr
    token = (
        auth_token
        if auth_token is not None
        else os.environ.get("AVMON_STORE_TOKEN") or None
    )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base = name if name else _default_identity("worker")
    names = [base] if workers == 1 else [f"{base}-{i}" for i in range(workers)]
    for worker_name in names:
        print(f"fleet worker {worker_name}: attached to {url}", file=out, flush=True)
    if workers == 1:
        try:
            _worker_loop(url, base, poll_interval, max_idle, token, out)
        except KeyboardInterrupt:
            print(f"fleet worker {base}: interrupted", file=out, flush=True)
        return 0
    import multiprocessing

    ctx = multiprocessing.get_context()
    processes = []
    for worker_name in names:
        process = ctx.Process(
            target=_worker_process_entry,
            args=(url, worker_name, poll_interval, max_idle, token),
            daemon=False,
        )
        process.start()
        processes.append(process)
    try:
        for process in processes:
            process.join()
    except KeyboardInterrupt:
        print(f"fleet worker {base}: interrupted", file=out, flush=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=2.0)
    return 0
