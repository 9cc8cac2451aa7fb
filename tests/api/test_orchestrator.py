"""Parallel orchestrator tests: determinism, failures, sweep aggregation.

The load-bearing test is parallel/serial equivalence: a sweep run with
``jobs=4`` must produce byte-identical summary JSON to the same sweep at
``jobs=1`` — deterministic seeding must survive the process boundary.
"""

import pytest

from repro.api import ResultSet, Scenario, sweep
from repro.experiments.orchestrator import SweepError, cell_label, run_configs
from repro.experiments.runner import SimulationConfig
from repro.experiments.summary import SimulationSummary
from repro.registry import REGISTRY

#: Tiny but non-trivial base: real churn, two sizes, two seeds.
BASE = Scenario(model="SYNTH", scale="test", warmup=300.0, duration=900.0)
GRID = {"n": [16, 24]}


@pytest.fixture(scope="module")
def serial_results():
    return sweep(BASE, GRID, seeds=2, jobs=1)


class TestParallelSerialEquivalence:
    def test_jobs4_byte_identical_to_jobs1(self, serial_results):
        parallel = sweep(BASE, GRID, seeds=2, jobs=4)
        assert parallel.to_json() == serial_results.to_json()

    def test_summary_json_round_trip(self, serial_results):
        for entry in serial_results:
            summary = entry.summary
            restored = SimulationSummary.from_json(summary.to_json())
            assert restored.to_json() == summary.to_json()
            assert restored.monitor_delays == summary.monitor_delays
            # wall-clock timing never enters the serialised form
            assert "wall_seconds" not in summary.to_dict()

    def test_results_in_cell_order(self, serial_results):
        assert [e.scenario.n for e in serial_results] == [16, 16, 24, 24]
        assert [e.scenario.seed for e in serial_results] == [1, 2, 1, 2]

    def test_distinct_seeds_distinct_results(self, serial_results):
        first, second = serial_results[0].summary, serial_results[1].summary
        assert first.seed != second.seed
        assert first.to_json() != second.to_json()


class TestRunConfigs:
    def test_serial_matches_direct_run(self):
        config = SimulationConfig(
            model="STAT", n=16, duration=900.0, warmup=300.0, seed=4
        )
        from repro.experiments.runner import run_simulation

        (via_orchestrator,) = run_configs([config])
        direct = run_simulation(config).summary()
        assert via_orchestrator.to_json() == direct.to_json()

    def test_failed_cell_raises_sweep_error(self):
        def boom_factory(n, rng=None, **_):
            raise RuntimeError("boom")

        REGISTRY.register("churn", "TEST-BOOM", boom_factory, replace=True)
        try:
            bad = SimulationConfig(
                model="TEST-BOOM", n=16, duration=900.0, warmup=300.0
            )
            good = SimulationConfig(
                model="STAT", n=16, duration=900.0, warmup=300.0
            )
            with pytest.raises(SweepError) as excinfo:
                run_configs([good, bad])
            error = excinfo.value
            assert len(error.failures) == 1
            assert error.failures[0].index == 1
            assert "boom" in error.failures[0].error
        finally:
            REGISTRY.unregister("churn", "TEST-BOOM")

    def test_progress_callback_sees_every_cell(self):
        seen = []
        configs = [
            SimulationConfig(model="STAT", n=16, duration=900.0, warmup=300.0, seed=s)
            for s in (1, 2)
        ]
        run_configs(configs, progress=lambda done, total, label, _: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_cell_label(self):
        config = SimulationConfig(
            model="SYNTH", n=32, duration=900.0, warmup=300.0, seed=5
        )
        assert cell_label(config) == "SYNTH n=32 seed=5"


class TestResultSetHelpers:
    def test_group_by_and_aggregate(self, serial_results):
        groups = serial_results.group_by("n")
        assert set(groups) == {(16,), (24,)}
        assert all(len(group) == 2 for group in groups.values())
        means = serial_results.aggregate("average_discovery_time", by=("n",))
        assert set(means) == {(16,), (24,)}
        for value in means.values():
            assert value >= 0.0

    def test_values_accepts_string_and_callable(self, serial_results):
        by_name = serial_results.values("average_discovery_time")
        by_call = serial_results.values(lambda s: s.average_discovery_time())
        assert by_name == by_call

    def test_result_set_round_trip(self, serial_results):
        restored = ResultSet.from_json(serial_results.to_json())
        assert restored.to_json() == serial_results.to_json()
