"""``VirtualEventLoop`` against the loop it replaced.

The memory fabric used to time-warp a stock ``SelectorEventLoop`` by
monkeypatching it (``_warp`` below, kept here as the oracle): the
selector's ``select(timeout)`` became "advance the virtual clock by
*timeout*, then poll", and ``MemoryNetwork`` scheduled every datagram with
``call_soon``/``call_later`` (``_ReferenceNetwork``).  Hypothesis draws
schedules — colliding ``when``s, cancellations across the compaction
threshold, nested ``call_soon``, ``sleep(0)``, ``wait_for`` timeouts,
``Event`` waits, outer cancels, shielded retries, raising callbacks,
datagrams with zero and positive delays — and both loops must run them in
the same order at the same virtual instants and report the same
exceptions.

The same schedules check :func:`repro.live.transport.wait_for` against
Python 3.11's ``asyncio.wait_for``, whose scheduling it reproduces.
"""

from __future__ import annotations

import ast
import asyncio
import gc
import logging
import pathlib
import sys
from collections import defaultdict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_memory_transport import no_udp_sockets  # noqa: F401

from repro.core.messages import CvPing
from repro.live.faults import FaultPlan, LinkFault
from repro.live.memory_transport import (
    VIRTUAL_EPOCH,
    MemoryNetwork,
    MemoryTransport,
    VirtualEventLoop,
    run_virtual,
)
from repro.live.transport import wait_for

pytestmark = pytest.mark.usefixtures("no_udp_sockets")


# -- the replaced implementation, as the oracle --------------------------------


class _VirtualClock:
    def __init__(self, start: float) -> None:
        self._now = start

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds


def _warp(loop: asyncio.AbstractEventLoop, start: float) -> None:
    """Time-warp a stock loop: sleeps become instant virtual-time jumps."""
    clock = _VirtualClock(start)
    selector = loop._selector
    original_select = selector.select

    def warped_select(timeout=None):
        if timeout is None:
            raise RuntimeError(
                "virtual clock: the event loop would sleep forever "
                "(deadlock in the in-memory overlay?)"
            )
        if timeout > 0:
            clock.advance(timeout)
            timeout = 0
        return original_select(timeout)

    selector.select = warped_select
    loop.time = clock.time


class _ReferenceNetwork(MemoryNetwork):
    """``MemoryNetwork.deliver`` as it was: one loop handle per copy."""

    def deliver(self, src, dst, data) -> None:
        if dst not in self._endpoints:
            self.undeliverable += 1
            return
        loop = asyncio.get_running_loop()
        source = self._endpoints.get(src)
        deliveries = self.injector.plan_delivery(
            None if source is None else source.label,
            self._endpoints[dst].label,
            self._now(),
        )
        for delay in deliveries:
            self.delivered += 1
            if delay <= 0.0:
                loop.call_soon(self._push, dst, data, src)
            else:
                loop.call_later(delay, self._push, dst, data, src)


def _run_on(loop, network_class, program):
    try:
        return loop.run_until_complete(program(network_class))
    finally:
        loop.close()


def _reference(program, start=VIRTUAL_EPOCH):
    loop = asyncio.new_event_loop()
    _warp(loop, start)
    return _run_on(loop, _ReferenceNetwork, program)


def _virtual(program, start=VIRTUAL_EPOCH):
    return _run_on(VirtualEventLoop(start), MemoryNetwork, program)


# -- drawn schedules ----------------------------------------------------------

#: Where the clocks start.  Near the epoch ``now + (when - now) == when``
#: always holds (Sterbenz); near zero it does not, so the loops' "advance
#: now" arithmetic must agree to the bit.
STARTS = st.sampled_from([VIRTUAL_EPOCH, 0.0, 0.1])
#: Short decimal delays whose float sums collide (0.25 + 0.25 == 0.5) and
#: ones that do not sum exactly (0.1 + 0.2 != 0.3).
DELAYS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
#: The delays without 0: the live stack's ``wait_for`` takes no zero
#: timeout (no caller passes one), so the helper oracle draws none.
TIMEOUTS = st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
#: Absolute offsets for ``call_at``: the delays' grid plus instants that
#: "now + (when - now)" misses from a start of 0 (0.1 + (0.45 - 0.1) is
#: 0.44999999999999996).
INSTANTS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.75, 0.85, 1.0])
#: Receivers: delay 0 (ready queue), fixed delay (heap), seeded jitter with
#: duplicates, and two whose receive path raises (one per branch).
TARGETS = ("near", "far", "jittery", "broken-now", "broken-later")


def _programs(timeouts):
    """Lists of ``(step, parent)``: a step runs when its parent fires (from
    inside that callback), or from the main coroutine when the parent index
    is not an earlier step.  *timeouts* feeds every ``wait_for``."""
    step = st.one_of(
        st.tuples(st.just("later"), DELAYS),
        st.tuples(st.just("at"), INSTANTS),
        st.tuples(st.just("soon")),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        # 95..160 timers, every 2nd/3rd/4th kept: straddles asyncio's
        # "more than 100 scheduled, more than half cancelled" compaction.
        st.tuples(st.just("burst"), st.integers(95, 160), st.integers(2, 4)),
        st.tuples(st.just("sleep0")),
        st.tuples(st.just("wait_for"), DELAYS, timeouts),
        # An Event set before, at or after the timeout instant.
        st.tuples(st.just("event"), DELAYS, timeouts),
        # wait_for(sleep(inner), timeout), its task cancelled at cancel_at.
        st.tuples(st.just("outer_cancel"), DELAYS, timeouts, DELAYS),
        # StatusProber's shape: one future, per-attempt shielded waits.
        st.tuples(st.just("shield"), DELAYS, timeouts, st.integers(1, 3)),
        st.tuples(st.just("raise"), DELAYS),
        st.tuples(st.just("send"), st.sampled_from(TARGETS)),
    )
    return st.lists(
        st.tuples(step, st.integers(-3, 30)), min_size=1, max_size=25
    )


PROGRAMS = _programs(DELAYS)

_PLAN = FaultPlan(
    links=(
        LinkFault(src=0, dst="far", latency=0.25),
        LinkFault(src=0, dst="jittery", jitter=0.3, duplicate=0.5),
        LinkFault(src=0, dst="broken-later", latency=0.1),
    ),
    seed=5,
)


class _BrokenReceiver(MemoryTransport):
    def _on_datagram(self, data, addr) -> None:
        raise RuntimeError(f"receiver bug on {len(data)} bytes")


def _program(steps, wait_for=asyncio.wait_for):
    """A ``main(network_class)`` coroutine function running *steps*, its
    timed waits through *wait_for*; it returns (trace, exception contexts,
    final time, copies delivered)."""
    children = defaultdict(list)
    for index, (_step, parent) in enumerate(steps):
        children[parent if 0 <= parent < index else None].append(index)

    async def main(network_class):
        loop = asyncio.get_running_loop()
        trace, contexts, handles, tasks = [], [], {}, []
        # The handle's type and, in debug mode, the frames that created it
        # are the implementation's own; what is reported must match.
        loop.set_exception_handler(
            lambda _loop, context: contexts.append(
                {
                    key: repr(value) if key == "exception" else value
                    for key, value in context.items()
                    if key not in ("handle", "source_traceback")
                }
            )
        )
        network = network_class(_PLAN)
        sender = MemoryTransport(network, lambda m, a: None, label=0)
        receivers = {
            name: (
                _BrokenReceiver if name.startswith("broken") else MemoryTransport
            )(network, lambda message, _a: fire(message.seq, "recv"), label=name)
            for name in TARGETS
        }

        def fire(index, what="fire"):
            trace.append((index, what, loop.time()))
            for child in children.get(index, ()):
                execute(child)

        def tick(index, j):
            trace.append((index, f"burst {j}", loop.time()))

        def explode(index):
            trace.append((index, "raise", loop.time()))
            raise ValueError(f"step {index}")

        async def sleeper(index):
            trace.append((index, "before sleep(0)", loop.time()))
            await asyncio.sleep(0)
            fire(index)

        async def napper(index, seconds):
            # Traced, so the turn the awaited coroutine first runs in shows.
            trace.append((index, "inner start", loop.time()))
            try:
                await asyncio.sleep(seconds)
            except asyncio.CancelledError:
                trace.append((index, "inner cancelled", loop.time()))
                raise

        async def waiter(index, inner, timeout):
            try:
                await wait_for(napper(index, inner), timeout)
            except asyncio.TimeoutError:
                fire(index, "timeout")
            except asyncio.CancelledError:
                fire(index, "cancelled")
            else:
                fire(index, "done")

        async def event_waiter(index, set_at, timeout):
            event = asyncio.Event()
            loop.call_later(set_at, event.set)
            try:
                await wait_for(event.wait(), timeout)
            except asyncio.TimeoutError:
                fire(index, "timeout")
            else:
                fire(index, "set")

        async def prober(index, resolve_at, per_attempt, attempts):
            future = loop.create_future()
            loop.call_later(resolve_at, future.set_result, index)
            for attempt in range(attempts):
                try:
                    await wait_for(asyncio.shield(future), per_attempt)
                except asyncio.TimeoutError:
                    trace.append((index, f"retry {attempt}", loop.time()))
                else:
                    fire(index, "resolved")
                    return
            fire(index, "gave up")

        def execute(index):
            kind, *args = steps[index][0]
            if kind == "later":
                handles[index] = loop.call_later(args[0], fire, index)
            elif kind == "at":
                handles[index] = loop.call_at(start + args[0], fire, index)
            elif kind == "soon":
                handles[index] = loop.call_soon(fire, index)
            elif kind == "cancel":
                if args[0] in handles:
                    handles[args[0]].cancel()
            elif kind == "burst":
                count, keep = args
                burst = [
                    loop.call_later(0.05 * (j % 7), tick, index, j)
                    for j in range(count)
                ]
                for j, handle in enumerate(burst):
                    if j % keep:
                        handle.cancel()
            elif kind == "sleep0":
                tasks.append(loop.create_task(sleeper(index)))
            elif kind == "wait_for":
                tasks.append(loop.create_task(waiter(index, *args)))
            elif kind == "event":
                tasks.append(loop.create_task(event_waiter(index, *args)))
            elif kind == "outer_cancel":
                inner, timeout, cancel_at = args
                task = loop.create_task(waiter(index, inner, timeout))
                loop.call_later(cancel_at, task.cancel)
                tasks.append(task)
            elif kind == "shield":
                tasks.append(loop.create_task(prober(index, *args)))
            elif kind == "raise":
                handles[index] = loop.call_later(args[0], explode, index)
            else:
                sender.send_to(receivers[args[0]].local_address, CvPing(0, index))

        start = loop.time()
        for index in children.get(None, ()):
            execute(index)
        await asyncio.sleep(100.0)
        # A task cancelled before its first step ends cancelled.
        await asyncio.gather(*tasks, return_exceptions=True)
        return trace, contexts, loop.time(), network.delivered

    return main


@given(PROGRAMS, STARTS)
# Pinned cases a small draw rarely reaches: a clock advance that float
# arithmetic gets "wrong" (0.1 -> 0.44999999999999996), and exactly half
# of 122 timers cancelled — the compaction threshold's boundary.
@example([(("later", 0.1), -1), (("at", 0.45), -1)], 0.0)
@example(
    [(("burst", 120, 2), -1), (("later", 0.3), -1), (("cancel", 1), -1)], 0.0
)
def test_virtual_loop_runs_any_schedule_like_the_warped_stock_loop(steps, start):
    program = _program(steps)
    assert _virtual(program, start) == _reference(program, start)


def test_oracle_sees_ties_compaction_and_raising_receivers():
    """One fixed program exercising every branch the strategy can draw,
    so the property test's oracle is known to have teeth."""
    steps = [
        (("burst", 150, 3), -1),
        (("later", 0.25), -1),
        (("at", 0.25), -1),
        (("later", 0.1), 1),
        (("soon",), 3),
        (("cancel", 1), -1),
        (("sleep0",), -1),
        (("wait_for", 0.5, 0.25), -1),
        (("wait_for", 0.2, 0.3), -1),
        (("raise", 0.3), -1),
        (("send", "far"), 2),
        (("send", "jittery"), -1),
        (("send", "broken-now"), -1),
        (("send", "broken-later"), -1),
    ]
    program = _program(steps)
    trace, contexts, now, delivered = _reference(program)
    assert (trace, contexts, now, delivered) == _virtual(program)
    fired = {(index, what) for index, what, _when in trace}
    assert (1, "fire") not in fired  # cancelled before it was due
    assert {(7, "timeout"), (8, "done"), (10, "recv"), (11, "recv")} <= fired
    assert sum(what.startswith("burst") for _i, what, _w in trace) == 50
    # broken-now, broken-later, then the raising timer at 0.3 s.
    assert [c["message"].split("(")[0] for c in contexts] == [
        "Exception in callback MemoryNetwork._push",
        "Exception in callback MemoryNetwork._push",
        "Exception in callback _program.<locals>.main.<locals>.explode",
    ]
    assert now == VIRTUAL_EPOCH + 100.0


# -- the live stack's wait_for against Python 3.11's ----------------------------


async def _inline_wait_for(aw, timeout):
    """Python 3.12's algorithm: await in place under ``asyncio.timeout()``."""
    async with asyncio.timeout(timeout):
        return await aw


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the oracle is Python 3.11's asyncio.wait_for",
)
@given(_programs(TIMEOUTS), STARTS)
# An Event set before, at and after the timeout instant; an outer cancel
# at once, during the wait and at the timeout instant; a shielded future
# resolved on the second of three attempts.
@example(
    [
        (("event", 0.2, 0.25), -1),
        (("event", 0.25, 0.25), -1),
        (("event", 0.3, 0.25), -1),
        (("outer_cancel", 1.0, 0.5, 0.0), -1),
        (("outer_cancel", 1.0, 0.5, 0.25), -1),
        (("outer_cancel", 1.0, 0.5, 0.5), -1),
        (("shield", 0.3, 0.2, 3), -1),
    ],
    0.0,
)
def test_live_wait_for_schedules_like_python_311s(steps, start):
    helper = _virtual(_program(steps, wait_for), start)
    assert helper == _virtual(_program(steps, asyncio.wait_for), start)


def test_live_wait_for_steps_the_awaited_coroutine_one_turn_later():
    """The difference that moved seeded bytes under 3.12's stdlib: the
    awaited coroutine runs in a new Task, after what is already ready."""
    steps = [(("wait_for", 0.5, 0.25), -1), (("soon",), -1)]

    def first_two(wait):
        trace = _virtual(_program(steps, wait))[0]
        return [(index, what) for index, what, _when in trace[:2]]

    assert first_two(wait_for) == [(1, "fire"), (0, "inner start")]
    assert first_two(_inline_wait_for) == [(0, "inner start"), (1, "fire")]


def test_src_has_no_second_wait_for():
    """Every timed wait in ``src/`` goes through the live stack's helper:
    ``asyncio.wait_for`` schedules differently from one Python to the next."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "wait_for"
                and isinstance(node.value, ast.Name)
                and node.value.id == "asyncio"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "asyncio"
                and any(alias.name == "wait_for" for alias in node.names)
            ):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not offenders, offenders


# -- the loop's own contract ----------------------------------------------------


def test_deliver_bypasses_call_soon_and_call_later():
    async def scenario():
        loop = asyncio.get_running_loop()
        network = MemoryNetwork(FaultPlan(links=(LinkFault(dst=2, latency=0.5),)))
        arrivals = []

        def arrive(_message, _addr):
            arrivals.append(loop.time())

        a = MemoryTransport(network, lambda m, addr: None, label=0)
        b = MemoryTransport(network, arrive, label=1)
        c = MemoryTransport(network, arrive, label=2)

        def forbidden(*args, **kwargs):
            raise AssertionError("MemoryNetwork.deliver scheduled a loop handle")

        loop.call_soon, loop.call_later = forbidden, forbidden
        a.send_to(b.local_address, CvPing(0, 1))
        a.send_to(c.local_address, CvPing(0, 2))
        del loop.call_soon, loop.call_later
        await asyncio.sleep(1.0)
        return arrivals

    assert run_virtual(scenario()) == [VIRTUAL_EPOCH, VIRTUAL_EPOCH + 0.5]


def test_run_virtual_finishes_leftover_tasks_like_asyncio_run(caplog):
    """A task still pending when the main coroutine returns is cancelled
    and its ``finally`` runs on the loop — not at garbage collection, with
    a "Task was destroyed but it is pending!" error logged."""
    cleaned = []

    async def leftover():
        try:
            await asyncio.sleep(100)
        finally:
            cleaned.append(asyncio.get_running_loop().time())

    tasks = []

    async def main():
        tasks.append(asyncio.get_running_loop().create_task(leftover()))
        await asyncio.sleep(0)  # let it reach its sleep
        return "returned"

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        assert run_virtual(main()) == "returned"
        assert cleaned == [VIRTUAL_EPOCH]
        assert tasks.pop().cancelled()
        gc.collect()
    assert "destroyed but it is pending" not in caplog.text
