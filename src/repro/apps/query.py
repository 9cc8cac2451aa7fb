"""Network-level availability queries (the full §3.3 protocol flow).

When a node ``y`` wants node ``x``'s availability it (1) asks ``x`` to
report at least ``l`` of its monitors, (2) verifies every reported monitor
against the consistency condition — so ``x`` cannot name colluders — and
(3) asks each verified monitor for its measured history, aggregating the
replies.  :class:`QueryClient` implements that exchange over the same
runtime interface protocol nodes use, so it runs under the simulator
attached to an ordinary host — or over a real network through
:class:`~repro.live.runtime.LiveRuntime` (the serving surface in
:mod:`repro.serve` does exactly that).

Every query carries its own deadline: a crashed subject or a crashed
monitor can only cost the caller that query's timeout, never a stalled
client.  The report phase is retried within the deadline (one lost
``ReportRequest`` datagram must not blank the whole query on a lossy
network), and a query that reaches its deadline mid-aggregation still
reports the partial result — ``monitors_answered`` of ``monitors_queried``
verified monitors replied, and the availability aggregates exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from ..core.condition import ConsistencyCondition
from ..core.hashing import NodeId
from ..core.messages import (
    HistoryReply,
    HistoryRequest,
    Message,
    ReportReply,
    ReportRequest,
)
from ..core.node import NodeRuntime
from ..core.reporting import aggregate_availability, verify_monitor_report

__all__ = ["QueryResult", "QueryClient"]


@dataclass
class QueryResult:
    """Outcome of one availability query."""

    subject: NodeId
    #: Monitors that passed the consistency-condition check.
    verified_monitors: Tuple[NodeId, ...] = ()
    #: Monitors the subject reported that failed verification.
    rejected_monitors: Tuple[NodeId, ...] = ()
    #: Per-monitor availability reports received.
    reports: Dict[NodeId, float] = field(default_factory=dict)
    #: Aggregated availability over the received verified reports.
    availability: float = 0.0
    #: True iff every verified monitor answered before the deadline.
    complete: bool = False
    #: True iff the subject reported at least ``min_monitors`` that verified.
    policy_satisfied: bool = False
    #: Verified monitors that were asked for history (``len(verified)``,
    #: or 0 when the subject never answered / reported nothing genuine).
    monitors_queried: int = 0
    #: Verified monitors whose history reply arrived before the deadline.
    monitors_answered: int = 0
    #: True iff the deadline fired with work still outstanding — either
    #: the subject's report or at least one monitor's history was missing.
    timed_out: bool = False


class QueryClient:
    """Queries subjects' availability through their verified monitors."""

    def __init__(
        self,
        client_id: NodeId,
        condition: ConsistencyCondition,
        runtime: NodeRuntime,
        *,
        min_monitors: int = 1,
        timeout: float = 10.0,
        report_retries: int = 2,
    ) -> None:
        if min_monitors < 1:
            raise ValueError(f"min_monitors must be >= 1, got {min_monitors}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if report_retries < 0:
            raise ValueError(
                f"report_retries must be >= 0, got {report_retries}"
            )
        self.id = client_id
        self.condition = condition
        self.runtime = runtime
        self.min_monitors = min_monitors
        self.timeout = timeout
        #: ``ReportRequest`` re-sends within the deadline (0 = single shot).
        self.report_retries = report_retries
        self._pending: Dict[NodeId, dict] = {}

    # -- public API -----------------------------------------------------------

    def query(
        self,
        subject: NodeId,
        callback: Callable[[QueryResult], None],
        *,
        min_monitors: Optional[int] = None,
        timeout: Optional[float] = None,
        history: bool = True,
    ) -> None:
        """Start a query for *subject*; *callback* fires exactly once.

        *min_monitors* (the paper's ``l``) and *timeout* override the
        client-wide defaults for this query only.  With ``history=False``
        the query stops after the report-verification phase — the result
        carries the verified/rejected monitor sets but no availability
        (a pure §3.3 monitor-set lookup).
        """
        if subject in self._pending:
            raise ValueError(f"query for {subject} already in flight")
        l = self.min_monitors if min_monitors is None else min_monitors
        if l < 1:
            raise ValueError(f"min_monitors must be >= 1, got {l}")
        deadline = self.timeout if timeout is None else timeout
        if deadline <= 0:
            raise ValueError(f"timeout must be positive, got {deadline}")
        state = self._pending[subject] = {
            "callback": callback,
            "result": QueryResult(subject=subject),
            "awaiting": set(),
            "min_monitors": l,
            "history": history,
            #: True until the subject's report has been received+verified.
            "reporting": True,
        }
        self._send_report_request(subject)
        # Retry the report phase inside the deadline: the request and the
        # reply are single unacked datagrams, so on a lossy fabric one lost
        # packet would otherwise blank the query for its full timeout.
        # Timers carry this query's own state as their token: one left
        # over from a finished query must not touch a later query for
        # the same subject.
        interval = deadline / (self.report_retries + 1)
        for attempt in range(1, self.report_retries + 1):
            self.runtime.schedule(
                interval * attempt, self._retry_report, subject, state
            )
        self.runtime.schedule(deadline, self._deadline, subject, state)

    def fetch_monitors(
        self,
        subject: NodeId,
        callback: Callable[[QueryResult], None],
        *,
        min_monitors: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Report-and-verify only: which monitors watch *subject*?"""
        self.query(
            subject,
            callback,
            min_monitors=min_monitors,
            timeout=timeout,
            history=False,
        )

    def pending_subjects(self) -> Tuple[NodeId, ...]:
        return tuple(self._pending)

    # -- message handling ---------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        if isinstance(message, ReportReply):
            self._on_report(message)
        elif isinstance(message, HistoryReply):
            self._on_history(message)

    def on_leave(self, now: float) -> None:  # runtime-compatibility hook
        for subject in list(self._pending):
            self._finish(subject, timed_out=True)

    def _send_report_request(self, subject: NodeId) -> None:
        state = self._pending.get(subject)
        if state is None:
            return
        self.runtime.send(
            subject,
            ReportRequest(
                sender=self.id,
                subject=subject,
                min_monitors=state["min_monitors"],
            ),
        )

    def _retry_report(self, subject: NodeId, state: dict) -> None:
        if self._pending.get(subject) is not state or not state["reporting"]:
            return  # finished, or already past the report phase
        self._send_report_request(subject)

    def _on_report(self, message: ReportReply) -> None:
        state = self._pending.get(message.subject)
        if state is None or not state["reporting"]:
            return  # unknown / duplicate report (a retry raced the reply)
        state["reporting"] = False
        verdict = verify_monitor_report(
            self.condition,
            message.subject,
            message.monitors,
            state["min_monitors"],
        )
        result: QueryResult = state["result"]
        result.verified_monitors = verdict.accepted
        result.rejected_monitors = verdict.rejected
        result.policy_satisfied = verdict.satisfied
        if not verdict.accepted or not state["history"]:
            self._finish(message.subject)
            return
        awaiting: Set[NodeId] = set(verdict.accepted)
        state["awaiting"] = awaiting
        result.monitors_queried = len(awaiting)
        for monitor in verdict.accepted:
            self.runtime.send(
                monitor, HistoryRequest(sender=self.id, subject=message.subject)
            )

    def _on_history(self, message: HistoryReply) -> None:
        state = self._pending.get(message.subject)
        if state is None or message.sender not in state["awaiting"]:
            return
        if not 0.0 <= message.availability <= 1.0:
            # Not an availability (the codec already drops NaN/inf): treat
            # the monitor as silent rather than poison the aggregate.
            return
        state["awaiting"].discard(message.sender)
        result: QueryResult = state["result"]
        result.reports[message.sender] = message.availability
        if not state["awaiting"]:
            result.complete = True
            self._finish(message.subject)

    def _deadline(self, subject: NodeId, state: dict) -> None:
        if self._pending.get(subject) is state:
            self._finish(subject, timed_out=True)

    def _finish(self, subject: NodeId, *, timed_out: bool = False) -> None:
        state = self._pending.pop(subject, None)
        if state is None:
            return
        result: QueryResult = state["result"]
        result.monitors_answered = len(result.reports)
        if timed_out and (state["reporting"] or state["awaiting"]):
            result.timed_out = True
        result.availability = aggregate_availability(result.reports.values())
        state["callback"](result)
