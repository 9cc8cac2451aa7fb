"""Unit tests for the availability-trace data model."""

import pytest

from repro.traces.format import AvailabilityTrace, NodeTrace, Session


class TestSession:
    def test_valid(self):
        session = Session(1.0, 5.0)
        assert session.length == 4.0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Session(5.0, 5.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Session(5.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Session(-1.0, 5.0)

    def test_contains_half_open(self):
        session = Session(1.0, 5.0)
        assert session.contains(1.0)
        assert session.contains(4.999)
        assert not session.contains(5.0)

    def test_overlap(self):
        session = Session(10.0, 20.0)
        assert session.overlap(0.0, 15.0) == 5.0
        assert session.overlap(12.0, 18.0) == 6.0
        assert session.overlap(25.0, 30.0) == 0.0


class TestNodeTrace:
    def test_sessions_sorted(self):
        node = NodeTrace(1, [Session(50.0, 60.0), Session(0.0, 10.0)])
        assert [s.start for s in node.sessions] == [0.0, 50.0]

    def test_overlapping_sessions_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            NodeTrace(1, [Session(0.0, 10.0), Session(5.0, 20.0)])

    def test_touching_sessions_allowed(self):
        node = NodeTrace(1, [Session(0.0, 10.0), Session(10.0, 20.0)])
        assert len(node.sessions) == 2

    def test_death_before_last_session_rejected(self):
        with pytest.raises(ValueError, match="death"):
            NodeTrace(1, [Session(0.0, 10.0)], death=5.0)

    def test_birth(self):
        assert NodeTrace(1, [Session(3.0, 5.0)]).birth == 3.0
        assert NodeTrace(1, []).birth is None

    def test_alive_at(self):
        node = NodeTrace(1, [Session(0.0, 10.0), Session(20.0, 30.0)])
        assert node.alive_at(5.0)
        assert not node.alive_at(15.0)
        assert node.alive_at(25.0)
        assert not node.alive_at(35.0)

    def test_uptime_and_availability(self):
        node = NodeTrace(1, [Session(0.0, 10.0), Session(20.0, 30.0)])
        assert node.uptime(0.0, 30.0) == 20.0
        assert node.availability(0.0, 30.0) == pytest.approx(2 / 3)
        assert node.availability(10.0, 20.0) == 0.0

    def test_uptime_invalid_window(self):
        with pytest.raises(ValueError):
            NodeTrace(1, []).uptime(10.0, 5.0)

    def test_session_lengths(self):
        node = NodeTrace(1, [Session(0.0, 4.0), Session(10.0, 11.0)])
        assert node.session_lengths() == (4.0, 1.0)


def sample_trace():
    return AvailabilityTrace(
        duration=100.0,
        nodes=[
            NodeTrace(0, [Session(0.0, 50.0)]),
            NodeTrace(1, [Session(10.0, 30.0), Session(60.0, 100.0)]),
            NodeTrace(2, [Session(40.0, 70.0)], death=80.0),
        ],
    )


class TestAvailabilityTrace:
    def test_basic_accessors(self):
        trace = sample_trace()
        assert len(trace) == 3
        assert 1 in trace
        assert trace.node(2).death == 80.0

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AvailabilityTrace(
                10.0,
                [NodeTrace(0, [Session(0, 1)]), NodeTrace(0, [Session(2, 3)])],
            )

    def test_session_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="beyond duration"):
            AvailabilityTrace(10.0, [NodeTrace(0, [Session(0.0, 11.0)])])

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            AvailabilityTrace(0.0, [])

    def test_alive_count(self):
        trace = sample_trace()
        assert trace.alive_count_at(20.0) == 2
        assert trace.alive_count_at(55.0) == 1
        assert trace.alive_count_at(65.0) == 2

    def test_events_sorted(self):
        events = sample_trace().events()
        times = [event.time for event in events]
        assert times == sorted(times)
        assert sum(1 for e in events if e.kind == "join") == 4
        assert sum(1 for e in events if e.kind == "leave") == 4

    def test_born_before(self):
        trace = sample_trace()
        assert trace.born_before(5.0) == 1
        assert trace.born_before(45.0) == 3

    def test_json_roundtrip(self):
        trace = sample_trace()
        restored = AvailabilityTrace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        assert restored.node(2).death == 80.0
        assert restored.node(1).sessions == trace.node(1).sessions
