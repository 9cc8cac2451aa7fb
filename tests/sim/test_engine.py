"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import _ELIDED_DRAIN_AT, Simulator


class TestScheduling:
    def test_executes_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run_until(2.0)
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]
        assert sim.now == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(4.0)

    def test_events_during_execution(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert order == ["first", "nested"]

    def test_event_beyond_horizon_not_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(1))
        sim.run_until(5.0)
        assert seen == []
        sim.run_until(15.0)
        assert seen == [1]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(1))
        handle.cancel()
        sim.run_until(5.0)
        assert seen == []

    def test_cancel_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run_until(5.0)

    def test_cancel_after_execution_harmless(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(1))
        sim.run_until(5.0)
        handle.cancel()
        assert seen == [1]


class TestScheduleCall:
    def test_runs_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(1.0, seen.append, "a")
        sim.schedule_call_at(2.0, seen.append, "b")
        sim.run_until(5.0)
        assert seen == ["a", "b"]

    def test_interleaves_fifo_with_handles(self):
        # Fast-path and cancellable entries share one sequence counter, so
        # simultaneous events still fire in scheduling order.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "handle-1")
        sim.schedule_call(1.0, order.append, "call-2")
        sim.schedule(1.0, order.append, "handle-3")
        sim.schedule_call(1.0, order.append, "call-4")
        sim.run_until(2.0)
        assert order == ["handle-1", "call-2", "handle-3", "call-4"]

    def test_counts_processed_events(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule_call(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.processed_events == 3

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_call(-1.0, lambda: None)

    def test_schedule_call_at_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_call_at(4.0, lambda: None)

    def test_schedule_passes_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda *a: seen.append(a), 1, 2)
        sim.run_until(2.0)
        assert seen == [(1, 2)]


class TestCompaction:
    def test_cancelled_entries_are_reaped(self):
        # A long-running sim whose cancels outpace its pops must not grow
        # the heap without bound: once dead entries exceed half the queue
        # (and the small-queue floor), the heap is compacted in place.
        sim = Simulator()
        queue_before = sim._queue
        live = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        dead = [sim.schedule(2000.0 + i, lambda: None) for i in range(500)]
        for handle in dead:
            handle.cancel()
        assert sim.pending_events() < 100, "compaction should have reaped corpses"
        assert sim.cancelled_pending() < sim.pending_events()
        assert sim._queue is queue_before, "compaction must preserve queue identity"
        sim.run_until(5000.0)
        assert sim.processed_events == len(live)

    def test_small_queues_are_not_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(10.0, lambda: None) for _ in range(20)]
        for handle in handles[:15]:
            handle.cancel()
        # Below the floor the corpses simply wait for their pop.
        assert sim.pending_events() == 20
        sim.run_until(20.0)
        assert sim.processed_events == 5

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handles = [sim.schedule(10.0, lambda: None) for _ in range(8)]
        for handle in handles[:4]:
            handle.cancel()
            handle.cancel()
        assert sim.cancelled_pending() == 4

    def test_cancel_after_fire_does_not_count(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        handle.cancel()
        assert sim.cancelled_pending() == 0


class TestRunHelpers:
    def test_run_duration(self):
        sim = Simulator()
        sim.run(7.5)
        assert sim.now == 7.5

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            Simulator().run(-1.0)

    def test_run_all_drains(self):
        sim = Simulator()
        count = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: count.append(1))
        assert sim.run_all() == 3
        assert sim.pending_events() == 0

    def test_run_all_guards_runaway(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError):
            sim.run_all(max_events=100)

    def test_processed_events_counter(self):
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.run_until(5.0)
        assert sim.processed_events == 2

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run_until(102.0)
        assert seen == [101.0]


def _noop():
    return None


class TestElidedEvents:
    """``elide_at`` counts an event without queueing it; the count must
    match what queueing a no-op at the same time would have given."""

    def test_counted_in_the_window_that_reaches_it(self):
        sim = Simulator()
        sim.elide_at(1.5)
        sim.elide_at(2.0)
        sim.run_until(1.0)
        assert sim.processed_events == 0
        sim.run_until(2.0)  # the edge is inclusive, as for queued events
        assert sim.processed_events == 2
        sim.run_until(3.0)
        assert sim.processed_events == 2
        assert sim.pending_events() == 0

    def test_straddling_elision_lands_in_the_later_window(self):
        # Elided mid-window for a time past the window's end: it belongs
        # to the next window, even if the buffer is drained in between.
        sim = Simulator()
        sim.schedule_call(0.9, lambda: sim.elide_at(sim.now + 0.2))
        sim.run_until(1.0)
        assert sim.processed_events == 1
        sim._drain_elided(sim.now)
        sim.run_until(1.05)
        assert sim.processed_events == 1
        sim.run_until(1.1)
        assert sim.processed_events == 2

    def test_mid_window_reads_see_the_window_start(self):
        sim = Simulator()
        seen = []
        sim.elide_at(0.5)
        sim.schedule_call(0.1, _noop)
        sim.schedule_call(1.0, lambda: seen.append(sim.processed_events))
        sim.run_until(0.2)
        sim.run_until(2.0)
        assert seen == [1]  # as with the queued 0.1 event: not 0.5's yet
        assert sim.processed_events == 3

    def test_run_all_counts_them(self):
        sim = Simulator()
        sim.schedule_call(1.0, lambda: sim.elide_at(5.0))
        sim.elide_at(2.0)
        assert sim.run_all() == 3
        assert sim.processed_events == 3

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.elide_at(4.0)

    def test_buffer_stays_bounded(self):
        # One long window eliding an event 50 ms ahead every millisecond:
        # a buffer kept until run_until returns would hold all 20,000.
        sim = Simulator()
        peak = []

        def tick():
            sim.elide_at(sim.now + 0.05)
            peak.append(len(sim._elided))
            if sim.now < 20.0:
                sim.schedule_call(0.001, tick)

        sim.schedule_call(0.0, tick)
        sim.run_until(30.0)
        assert max(peak) <= _ELIDED_DRAIN_AT
        assert sim.processed_events == 2 * len(peak)
        assert sim._elided == [] and sim._elided_due == 0

    def test_many_in_flight_grow_the_cap_instead_of_draining_each_time(self):
        sim = Simulator()
        for index in range(3 * _ELIDED_DRAIN_AT):
            sim.elide_at(100.0 + index)
        assert len(sim._elided) == 3 * _ELIDED_DRAIN_AT
        assert sim._elided_cap > len(sim._elided)
        sim.run_until(100.0 + 3 * _ELIDED_DRAIN_AT)
        assert sim.processed_events == 3 * _ELIDED_DRAIN_AT

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 10.0), st.booleans(), st.floats(0.0, 1.0)),
            max_size=60,
        ),
        st.lists(st.floats(0.0, 12.0), max_size=8).map(sorted),
    )
    def test_counts_match_queueing_a_noop(self, events, edges):
        # Each event fires at its time and then schedules a follow-up after
        # its delay; with elide=True the follow-up is elided, otherwise it
        # is queued as a no-op.  Both engines must count alike at every edge.
        def drive(elide):
            sim = Simulator()

            def fire(delay):
                if elide:
                    sim.elide_at(sim.now + delay)
                else:
                    sim.schedule_call(delay, _noop)

            for time, _, delay in events:
                sim.schedule_call_at(time, fire, delay)
            for time, direct, _ in events:
                if direct and elide:
                    sim.elide_at(time)
                elif direct:
                    sim.schedule_call_at(time, _noop)
            counts = []
            for edge in edges + [12.0]:
                sim.run_until(max(edge, sim.now))
                counts.append(sim.processed_events)
            return counts

        assert drive(elide=True) == drive(elide=False)
