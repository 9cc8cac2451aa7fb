"""Integration-level tests of the simulation runner."""

import pytest

from repro.core.config import AvmonConfig
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.experiments.scenarios import overnet_scenario, scenario


@pytest.fixture(scope="module")
def stat_result():
    return run_simulation(
        SimulationConfig(model="STAT", n=60, duration=2400.0, warmup=600.0, seed=5)
    )


class TestConfigValidation:
    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            SimulationConfig(model="STAT", n=10, duration=100.0, warmup=200.0)

    def test_trace_model_requires_trace(self):
        with pytest.raises(ValueError):
            SimulationConfig(model="OV", n=10, duration=100.0, warmup=10.0)

    def test_control_modes(self):
        assert (
            SimulationConfig(model="STAT", n=10, duration=100.0, warmup=10.0).control_mode
            == "simultaneous"
        )
        assert (
            SimulationConfig(
                model="SYNTH-BD", n=10, duration=100.0, warmup=10.0
            ).control_mode
            == "births_after_warmup"
        )

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            SimulationConfig(model="STAT", n=10, duration=100.0, warmup=10.0, control_fraction=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(model="STAT", n=10, duration=100.0, warmup=10.0, overreport_fraction=-0.1)


class TestStatRun(object):
    def test_control_group_size(self, stat_result):
        assert stat_result.metrics.discovery.tracked_count() == 6  # 10% of 60

    def test_all_control_nodes_discover_monitors(self, stat_result):
        assert stat_result.metrics.discovery.undiscovered_count() == 0

    def test_discovery_below_one_period(self, stat_result):
        # N=60 with cvs~11: E[D] ~ N/cvs^2 ~ 0.5 periods; generous bound.
        assert stat_result.summary().average_discovery_time() < 60.0

    def test_memory_near_expectation(self, stat_result):
        expected = stat_result.avmon_config.expected_memory_entries
        values = stat_result.memory_values(control_only=True)
        assert values
        average = sum(values) / len(values)
        assert expected * 0.5 < average < expected * 1.8

    def test_computation_rate_near_2cvs_squared(self, stat_result):
        config = stat_result.avmon_config
        expected = 2.0 * config.cvs**2 / config.protocol_period
        rates = stat_result.computation_rates(control_only=True)
        average = sum(rates) / len(rates)
        assert 0.4 * expected < average < 2.5 * expected

    def test_bandwidth_positive_and_modest(self, stat_result):
        rates = stat_result.bandwidth_rates()
        assert rates
        assert all(rate >= 0.0 for rate in rates)
        # cvs ~ 11 entries * 8B / 60s plus pings: well under 100 Bps.
        assert max(rates) < 100.0

    def test_no_useless_pings_without_churn(self, stat_result):
        assert all(rate == 0.0 for rate in stat_result.useless_ping_rates())

    def test_alive_count(self, stat_result):
        assert stat_result.final_alive == 66  # 60 + 10% control

    def test_ps_ts_inverse_consistency(self, stat_result):
        # If u is in PS(v) at v, then v must be in TS(u) at u (both sides
        # were NOTIFYed; with STAT and no loss both must have arrived), and
        # every recorded relationship satisfies the condition.
        cluster = stat_result.cluster
        condition = cluster.relation.condition
        for node in cluster.nodes.values():
            for monitor in node.ps:
                assert condition.holds(monitor, node.id)
            for target in node.ts:
                assert condition.holds(node.id, target)

    def test_audit_accurate_when_honest(self, stat_result):
        audits = stat_result.availability_audit(control_only=True)
        assert audits
        for estimate, truth in audits.values():
            assert truth == pytest.approx(1.0)
            assert estimate > 0.9

    def test_true_availability_bookkeeping(self, stat_result):
        cluster = stat_result.cluster
        control = sorted(cluster.control_nodes)[0]
        joined = cluster.first_join_time(control)
        assert joined == pytest.approx(600.0)
        assert cluster.true_availability(control, joined, 2400.0) == pytest.approx(1.0)


class TestChurnedRuns:
    def test_synth_keeps_stable_size(self):
        result = run_simulation(
            SimulationConfig(model="SYNTH", n=50, duration=3000.0, warmup=600.0, seed=7)
        )
        # Stable size should stay within a reasonable band around N.
        assert 30 <= result.final_alive <= 75

    def test_synth_bd_births_tracked(self):
        config = scenario("SYNTH-BD", 40, "test", seed=11)
        result = run_simulation(config)
        assert result.n_longterm > 80  # initial 40 + down pool 40 + births
        assert result.metrics.discovery.tracked_count() > 0

    def test_overreporters_flagged(self):
        config = scenario("SYNTH", 40, "test", seed=3, overreport_fraction=0.25)
        result = run_simulation(config)
        liars = [n for n in result.cluster.nodes.values() if n.overreports]
        assert len(liars) == round(0.25 * len(result.cluster.nodes))

    def test_trace_run_completes(self):
        result = run_simulation(overnet_scenario("test", seed=2))
        assert result.n_longterm == result.cluster.births_total
        assert result.final_alive > 0

    def test_deterministic_given_seed(self):
        config_a = SimulationConfig(model="STAT", n=30, duration=1500.0, warmup=300.0, seed=9)
        config_b = SimulationConfig(model="STAT", n=30, duration=1500.0, warmup=300.0, seed=9)
        first = run_simulation(config_a)
        second = run_simulation(config_b)
        assert (
            first.summary().first_monitor_delays()
            == second.summary().first_monitor_delays()
        )
        assert first.window_bytes == second.window_bytes

    def test_seed_changes_outcome(self):
        base = dict(model="STAT", n=30, duration=1500.0, warmup=300.0)
        first = run_simulation(SimulationConfig(seed=1, **base))
        second = run_simulation(SimulationConfig(seed=2, **base))
        assert (
            first.summary().first_monitor_delays()
            != second.summary().first_monitor_delays()
        )

    def test_custom_avmon_config_respected(self):
        avmon = AvmonConfig(n_expected=40, k=4, cvs=5, enable_pr2=True)
        config = SimulationConfig(
            model="STAT", n=40, duration=1500.0, warmup=300.0, avmon=avmon, seed=2
        )
        result = run_simulation(config)
        assert result.avmon_config.cvs == 5
        for node in result.cluster.nodes.values():
            assert len(node.cv) <= 5
