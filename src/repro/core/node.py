"""The AVMON node: join, discovery and monitoring protocols (Section 3).

:class:`AvmonNode` is pure protocol logic.  It talks to the outside world
only through a :class:`NodeRuntime` — a small interface providing the clock,
message transport, timer scheduling, a per-node RNG and a bootstrap oracle —
so the same class runs unchanged under the discrete-event simulator (see
:mod:`repro.net.network`) or any other harness a downstream user provides.

Protocol summary
----------------

* **Joining sub-protocol (Figure 1)**: a (re-)joining node sends a weighted
  ``JOIN`` to one random node and inherits that node's coarse view.  Each
  recipient adds the joiner to its coarse view (decrementing the weight) and
  forwards two half-weight copies to random coarse-view members, building a
  random spanning tree that reaches an expected ``cvs`` nodes in
  ``O(log cvs)`` periods.  A rejoining node uses weight
  ``min(cvs, t_down / T)`` to replace exactly the entries lost while away.

* **Coarse-view maintenance and discovery (Figure 2)**: once per protocol
  period a node (a) pings one random coarse-view entry and prunes it on
  timeout, and (b) fetches the coarse view of another random entry ``w``,
  checks the consistency condition over all ordered pairs of the two views
  (plus ``x`` and ``w`` themselves), sends ``NOTIFY(u, v)`` to both endpoints
  of every match, and reshuffles its view to ``cvs`` random entries from the
  union.

* **Monitoring (Section 3.3)**: ``NOTIFY`` receipts are re-verified against
  the consistency condition before updating ``PS``/``TS``.  Once per
  monitoring period the node pings every target in ``TS`` (modulated by
  forgetful pinging) and records the outcome in its persistent store.

* **PR2 (Section 5.4)**: optionally, a node that has not received a
  monitoring ping for two successive protocol periods forces itself back
  into its coarse-view members' views.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Protocol, Set, Tuple

from .coarse_view import CoarseView
from .config import AvmonConfig
from .hashing import NodeId
from .messages import (
    CvFetchReply,
    CvFetchRequest,
    CvPing,
    CvPong,
    HistoryReply,
    HistoryRequest,
    Join,
    Message,
    MonitorPing,
    MonitorPong,
    Notify,
    Pr2Refresh,
    ReportReply,
    ReportRequest,
)
from .monitoring import MonitoringStore
from .relation import MonitorRelation, count_cross_pairs

__all__ = ["NodeRuntime", "TimerHandle", "MetricsSink", "NullMetrics", "AvmonNode"]


class TimerHandle(Protocol):
    """Handle returned by :meth:`NodeRuntime.schedule`; supports cancel()."""

    def cancel(self) -> None: ...


class NodeRuntime(Protocol):
    """Environment services an :class:`AvmonNode` needs."""

    rng: random.Random

    def now(self) -> float: ...

    def send(self, dst: NodeId, message: Message) -> None: ...

    def schedule(
        self, delay: float, callback: Callable[..., None], *args
    ) -> TimerHandle: ...

    # Runtimes may additionally provide ``schedule_call(delay, fn, *args)``,
    # a fire-and-forget variant that returns no handle; the node uses it for
    # its (never cancelled) ping timeouts when available and falls back to
    # ``schedule`` otherwise, so implementing it is optional.

    def choose_bootstrap(self, exclude: NodeId) -> Optional[NodeId]:
        """A uniformly random currently-alive node other than *exclude*."""
        ...

    def target_in_system(self, node: NodeId) -> bool:
        """Global oracle used only for the useless-ping *metric* (§5.4)."""
        ...


class MetricsSink(Protocol):
    """Observer hooks the experiment harness wires into every node."""

    def on_monitor_discovered(
        self, target: NodeId, monitor: NodeId, time: float, ps_size: int
    ) -> None: ...

    def on_target_discovered(
        self, monitor: NodeId, target: NodeId, time: float
    ) -> None: ...

    def on_computations(self, node: NodeId, count: int) -> None: ...

    def on_monitor_ping_sent(
        self, monitor: NodeId, target: NodeId, useless: bool
    ) -> None: ...


class NullMetrics:
    """Default sink: ignores everything."""

    def on_monitor_discovered(self, target, monitor, time, ps_size) -> None:
        pass

    def on_target_discovered(self, monitor, target, time) -> None:
        pass

    def on_computations(self, node, count) -> None:
        pass

    def on_monitor_ping_sent(self, monitor, target, useless) -> None:
        pass


class AvmonNode:
    """One AVMON participant; see the module docstring for the protocol."""

    def __init__(
        self,
        node_id: NodeId,
        config: AvmonConfig,
        relation: MonitorRelation,
        runtime: NodeRuntime,
        metrics: Optional[MetricsSink] = None,
    ) -> None:
        self.id = node_id
        self.config = config
        self.relation = relation
        self.runtime = runtime
        self.metrics: MetricsSink = metrics if metrics is not None else NullMetrics()

        self.cv = CoarseView(owner=node_id, capacity=config.cvs)
        #: Discovered pinging set: monitor id -> discovery time.
        self.ps: Dict[NodeId, float] = {}
        #: Discovered target set (ids this node monitors).
        self.ts: Set[NodeId] = set()
        #: Persistent availability records for TS targets (survives rejoins).
        self.store = MonitoringStore()

        #: Total consistency-condition evaluations this node has performed,
        #: charged at protocol fidelity (see repro.core.relation docstring).
        self.computations = 0
        #: When this node last left the system (for the rejoin JOIN weight).
        self.last_leave_time: Optional[float] = None
        #: When this node last received a monitoring ping (PR2 trigger).
        self.last_monitor_ping_received: float = 0.0
        #: Attack flag for Figure 20: report 100% availability for TS nodes.
        self.overreports = False

        self._joined_before = False
        self._seq = 0
        #: In-flight request state: seq -> (kind, peer, inherit).
        self._pending: Dict[int, Tuple[str, NodeId, bool]] = {}
        # Timeouts are never cancelled, so use the runtime's fire-and-forget
        # scheduling lane when it offers one (see NodeRuntime).
        schedule_call = getattr(runtime, "schedule_call", None)
        self._schedule_call = schedule_call if schedule_call is not None else runtime.schedule

    # ------------------------------------------------------------------
    # Lifecycle: joining, rejoining, leaving
    # ------------------------------------------------------------------

    def begin_join(self) -> None:
        """Execute Figure 1 for this node (first join or rejoin)."""
        now = self.runtime.now()
        self.last_monitor_ping_received = now
        bootstrap = self.runtime.choose_bootstrap(exclude=self.id)
        if self._joined_before:
            weight = self._rejoin_weight(now)
        else:
            weight = self.config.cvs
            self._joined_before = True
        if bootstrap is None:
            # First node in the system: nobody to announce to.
            return
        if weight > 0:
            self.runtime.send(bootstrap, Join(self.id, self.id, weight))
        # "Inherit view from this random node": fetch its coarse view and
        # adopt it (no pair-checking during inheritance).
        seq = self._next_seq()
        self._pending[seq] = ("fetch", bootstrap, True)
        self.runtime.send(bootstrap, CvFetchRequest(self.id, seq))
        self._arm_timeout(seq)

    def _rejoin_weight(self, now: float) -> int:
        if self.last_leave_time is None:
            return self.config.cvs
        periods_down = int(
            (now - self.last_leave_time) / self.config.protocol_period
        )
        return min(self.config.cvs, periods_down)

    def on_leave(self, now: float) -> None:
        """Called by the host when this node leaves or fails.

        Coarse view, PS/TS and the store stay in persistent storage; only
        in-flight request state is dropped.
        """
        self.last_leave_time = now
        self._pending.clear()

    # ------------------------------------------------------------------
    # Periodic activity
    # ------------------------------------------------------------------

    def protocol_tick(self) -> None:
        """One round of the coarse-membership protocol (Figure 2)."""
        rng = self.runtime.rng
        ping_target = self.cv.random_choice(rng)
        if ping_target is not None:
            seq = self._next_seq()
            self._pending[seq] = ("cvping", ping_target, False)
            self.runtime.send(ping_target, CvPing(self.id, seq))
            self._arm_timeout(seq)

        fetch_target = self.cv.random_choice(rng)
        if fetch_target is not None:
            seq = self._next_seq()
            self._pending[seq] = ("fetch", fetch_target, False)
            self.runtime.send(fetch_target, CvFetchRequest(self.id, seq))
            self._arm_timeout(seq)

        if self.config.enable_pr2:
            self._maybe_pr2_refresh()

    def monitoring_tick(self) -> None:
        """One round of monitoring pings to every TS target (Section 3.3).

        The per-target services are hoisted into locals: with |TS| ≈ K this
        loop runs K times per node per period for the entire simulation.
        """
        runtime = self.runtime
        config = self.config
        store = self.store
        now = runtime.now()
        rng = runtime.rng
        record_for = store.record_for
        records_get = store._records.get
        target_in_system = runtime.target_in_system
        on_ping_sent = self.metrics.on_monitor_ping_sent
        send = runtime.send
        schedule = self._schedule_call
        on_timeout = self._on_timeout
        pending = self._pending
        my_id = self.id
        tau = config.forgetful_tau
        c = config.forgetful_c
        forgetful = config.enable_forgetful
        timeout = config.ping_timeout
        seq = self._seq
        for target in list(self.ts):
            if forgetful:
                # Inline of MonitoringStore.should_ping: the overwhelmingly
                # common cases — target never seen up, or currently
                # responsive — ping unconditionally and draw no randomness,
                # exactly as the store method would.
                record = records_get(target)
                if record is None:
                    record = record_for(target)
                if (
                    record.pings_answered != 0
                    and record._down_since is not None
                    and not record.should_ping(now, tau, c, rng)
                ):
                    continue
            else:
                record = record_for(target)
            record.pings_sent += 1  # inline record_sent()
            useless = not target_in_system(target)
            if useless:
                store.useless_pings += 1
            on_ping_sent(my_id, target, useless)
            seq += 1
            pending[seq] = ("mping", target, False)
            send(target, MonitorPing(my_id, seq))
            schedule(timeout, on_timeout, seq)
        self._seq = seq

    def _maybe_pr2_refresh(self) -> None:
        now = self.runtime.now()
        silent_for = now - self.last_monitor_ping_received
        if silent_for < 2.0 * self.config.protocol_period:
            return
        for neighbour in self.cv.entries():
            self.runtime.send(neighbour, Pr2Refresh(sender=self.id))
        # Reset the trigger so the refresh is not spammed every period.
        self.last_monitor_ping_received = now

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Dispatch one delivered message (called by the host while alive).

        The high-frequency message kinds are matched by exact type and
        handled inline, most frequent first — NOTIFY floods alone are more
        than half of all delivered traffic, and at N=10,000 the handler
        frame plus a dispatch lookup per message costs more than the
        handlers themselves.  Each inline block mirrors the standalone
        ``_handle_*`` method of the same kind (kept as the readable
        reference and for the dispatch fallback); everything else — rare
        kinds, subclasses, unknown types — goes through the type-keyed
        ``_DISPATCH`` table below.
        """
        cls = message.__class__
        if cls is Notify:
            self._accept_notify(message.monitor, message.target)
            return
        if cls is MonitorPong:
            info = self._pending.pop(message.seq, None)
            if info is not None and info[0] == "mping":
                self.store.record_for(info[1]).record_reply(self.runtime.now())
            return
        if cls is MonitorPing:
            self.last_monitor_ping_received = self.runtime.now()
            self.runtime.send(message.sender, MonitorPong(self.id, message.seq))
            return
        if cls is CvPong:
            self._pending.pop(message.seq, None)
            return
        if cls is CvPing:
            self.runtime.send(message.sender, CvPong(self.id, message.seq))
            return
        if cls is CvFetchReply:
            self._handle_fetch_reply(message)
            return
        handler = _DISPATCH.get(cls)
        if handler is None:
            handler = _resolve_handler(cls)
        handler(self, message)

    def _handle_cv_ping(self, message: CvPing) -> None:
        self.runtime.send(message.sender, CvPong(sender=self.id, seq=message.seq))

    def _handle_cv_pong(self, message: CvPong) -> None:
        self._pending.pop(message.seq, None)

    def _handle_fetch_request(self, message: CvFetchRequest) -> None:
        self.runtime.send(
            message.sender,
            CvFetchReply(sender=self.id, seq=message.seq, view=self.cv.entries()),
        )

    def _handle_notify(self, message: Notify) -> None:
        self._accept_notify(message.monitor, message.target)

    def _handle_monitor_ping(self, message: MonitorPing) -> None:
        self.last_monitor_ping_received = self.runtime.now()
        self.runtime.send(message.sender, MonitorPong(sender=self.id, seq=message.seq))

    def _handle_monitor_pong(self, message: MonitorPong) -> None:
        info = self._pending.pop(message.seq, None)
        if info is not None and info[0] == "mping":
            self.store.record_for(info[1]).record_reply(self.runtime.now())

    def _handle_pr2_refresh(self, message: Pr2Refresh) -> None:
        self.cv.add(message.sender, self.runtime.rng)

    def _ignore_message(self, message: Message) -> None:
        pass

    # -- joining ---------------------------------------------------------

    def _handle_join(self, message: Join) -> None:
        weight = message.weight
        if weight <= 0:
            return
        origin = message.origin
        if origin != self.id and origin not in self.cv:
            self.cv.add(origin, self.runtime.rng)
            weight -= 1
        if weight <= 0:
            return
        low, high = weight // 2, weight - weight // 2
        rng = self.runtime.rng
        for part in (low, high):
            if part <= 0:
                continue
            next_hop = self.cv.random_choice_excluding(rng, excluded=origin)
            if next_hop is None:
                continue
            self.runtime.send(next_hop, Join(self.id, origin, part))

    # -- coarse-view exchange ---------------------------------------------

    def _handle_fetch_reply(self, message: CvFetchReply) -> None:
        info = self._pending.pop(message.seq, None)
        if info is None or info[0] != "fetch":
            return
        _, peer, inherit = info
        fetched = set(message.view)
        if inherit:
            self.cv.reshuffle(fetched | {peer}, self.runtime.rng)
            return
        view_a = self.cv.as_set() | {self.id, peer}
        view_b = fetched | {self.id, peer}
        checked = count_cross_pairs(view_a, view_b)
        self.computations += checked
        self.metrics.on_computations(self.id, checked)
        for monitor, target in self.relation.find_matches(view_a, view_b):
            self._dispatch_notify(monitor, target)
        self.cv.reshuffle(fetched | {peer}, self.runtime.rng)

    def _dispatch_notify(self, monitor: NodeId, target: NodeId) -> None:
        # Both endpoints receive the same (immutable) Notify, built at most
        # once; matches always have monitor != target, so at most one
        # endpoint is this node itself.
        my_id = self.id
        notify = None
        if monitor == my_id:
            self._accept_notify(monitor, target)
        else:
            notify = Notify(my_id, monitor, target)
            self.runtime.send(monitor, notify)
        if target == my_id:
            self._accept_notify(monitor, target)
        else:
            if notify is None:
                notify = Notify(my_id, monitor, target)
            self.runtime.send(target, notify)

    def notify_is_noop(self, monitor: NodeId, target: NodeId) -> bool:
        """Whether :meth:`_accept_notify` would do nothing here: this node is
        the target with *monitor* in PS, or the monitor with *target* in TS.

        PS and TS only grow, so True at send time holds at delivery; the
        simulated network skips queueing such NOTIFYs (:mod:`repro.net.network`).
        """
        my_id = self.id
        if target == my_id:
            return monitor in self.ps
        return monitor == my_id and target in self.ts

    def _accept_notify(self, monitor: NodeId, target: NodeId) -> None:
        """Apply a NOTIFY at this node, re-verifying the condition (§3.3).

        Most notifies are rediscoveries of pairs already in PS/TS (the
        protocol re-finds matches every period), so the membership checks
        come first and the clock is only read on an actual discovery.
        """
        my_id = self.id
        if target == my_id and monitor != my_id and monitor not in self.ps:
            self.computations += 1
            if self.relation.condition.holds(monitor, my_id):
                now = self.runtime.now()
                self.ps[monitor] = now
                self.metrics.on_monitor_discovered(my_id, monitor, now, len(self.ps))
        if monitor == my_id and target != my_id and target not in self.ts:
            self.computations += 1
            if self.relation.condition.holds(my_id, target):
                self.ts.add(target)
                self.store.record_for(target)
                self.metrics.on_target_discovered(my_id, target, self.runtime.now())

    # -- application-facing requests ----------------------------------------

    def _handle_report_request(self, message: ReportRequest) -> None:
        monitors = self.report_monitors(message.min_monitors)
        self.runtime.send(
            message.sender,
            ReportReply(sender=self.id, subject=self.id, monitors=monitors),
        )

    def report_monitors(self, min_monitors: int) -> tuple:
        """Select ``l`` discovered monitors to report (cannot be forged).

        The node may pick *any* of its PS — callers verify each against the
        consistency condition, so only genuine monitors pass.
        """
        known = list(self.ps)
        if len(known) <= min_monitors:
            return tuple(known)
        return tuple(self.runtime.rng.sample(known, min_monitors))

    def _handle_history_request(self, message: HistoryRequest) -> None:
        self.runtime.send(
            message.sender,
            HistoryReply(
                sender=self.id,
                subject=message.subject,
                availability=self.availability_report(message.subject),
            ),
        )

    def availability_report(self, target: NodeId) -> float:
        """This monitor's measured availability of *target*.

        An overreporting colluder (Figure 20's attack) returns 100 % for
        every node it monitors.
        """
        if self.overreports:
            return 1.0
        return self.store.estimated_availability(target)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_entries(self) -> int:
        """The paper's memory metric: ``|CV| + |PS| + |TS|``."""
        return len(self.cv) + len(self.ps) + len(self.ts)

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _arm_timeout(self, seq: int) -> None:
        self._schedule_call(self.config.ping_timeout, self._on_timeout, seq)

    def _on_timeout(self, seq: int) -> None:
        info = self._pending.pop(seq, None)
        if info is None:
            return
        kind = info[0]
        if kind == "cvping":
            self.cv.remove(info[1])
        elif kind == "mping":
            self.store.record_for(info[1]).record_timeout(self.runtime.now())
        # A timed-out fetch is simply skipped for this round (Figure 2 picks
        # a fresh partner next period).

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvmonNode(id={self.id}, cv={len(self.cv)}, ps={len(self.ps)}, "
            f"ts={len(self.ts)})"
        )


#: Exact-type message dispatch for :meth:`AvmonNode.handle_message`.
_DISPATCH: Dict[type, Callable[[AvmonNode, Message], None]] = {
    Join: AvmonNode._handle_join,
    CvPing: AvmonNode._handle_cv_ping,
    CvPong: AvmonNode._handle_cv_pong,
    CvFetchRequest: AvmonNode._handle_fetch_request,
    CvFetchReply: AvmonNode._handle_fetch_reply,
    Notify: AvmonNode._handle_notify,
    MonitorPing: AvmonNode._handle_monitor_ping,
    MonitorPong: AvmonNode._handle_monitor_pong,
    Pr2Refresh: AvmonNode._handle_pr2_refresh,
    ReportRequest: AvmonNode._handle_report_request,
    HistoryRequest: AvmonNode._handle_history_request,
}


def _resolve_handler(message_type: type) -> Callable[[AvmonNode, Message], None]:
    """Slow-path resolution for subclasses and unknown message types.

    The result is memoised into ``_DISPATCH`` so each concrete type pays the
    isinstance scan at most once per process.
    """
    for registered, handler in list(_DISPATCH.items()):
        if issubclass(message_type, registered):
            _DISPATCH[message_type] = handler
            return handler
    _DISPATCH[message_type] = AvmonNode._ignore_message
    return AvmonNode._ignore_message
