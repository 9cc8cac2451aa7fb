"""File-level round trips for trace serialisation (tmp_path based)."""

import pytest

from repro.traces import generate_overnet_trace
from repro.traces.format import AvailabilityTrace


@pytest.fixture(scope="module")
def trace():
    return generate_overnet_trace(
        n_stable=15, duration=6 * 3600.0, seed=8, births_per_hour=0.5
    )


class TestJsonFiles:
    def test_json_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "overnet.json"
        path.write_text(trace.to_json())
        restored = AvailabilityTrace.from_json(path.read_text())
        assert len(restored) == len(trace)
        assert restored.duration == trace.duration
        for node_id, node in trace.nodes.items():
            assert restored.node(node_id).sessions == node.sessions
            assert restored.node(node_id).death == node.death

    def test_json_preserves_statistics(self, trace):
        from repro.traces.analysis import summarize_trace

        original = summarize_trace(trace)
        restored = summarize_trace(AvailabilityTrace.from_json(trace.to_json()))
        assert restored.mean_availability == pytest.approx(original.mean_availability)
        assert restored.churn_per_hour == original.churn_per_hour
        assert restored.n_longterm == original.n_longterm

