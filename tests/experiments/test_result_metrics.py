"""Focused tests of SimulationResult's derived metrics."""

import pytest

from repro.experiments.runner import SimulationConfig, run_simulation


@pytest.fixture(scope="module")
def churned_result():
    return run_simulation(
        SimulationConfig(
            model="SYNTH",
            n=40,
            duration=2400.0,
            warmup=600.0,
            seed=47,
            churn_per_hour=4.0,
        )
    )


class TestRateNormalisation:
    def test_rates_exclude_barely_alive_nodes(self, churned_result):
        result = churned_result
        eligible = [
            node
            for node in result.cluster.nodes
            if result._alive_seconds(node) >= result.MIN_ALIVE_SECONDS
        ]
        assert len(result.computation_rates(control_only=False)) == len(eligible)

    def test_bandwidth_uses_alive_time(self, churned_result):
        result = churned_result
        # A node alive half the window has its bytes divided by its alive
        # seconds; rates must therefore be bounded by a constant factor of
        # the per-period wire cost, not halved by downtime.
        rates = result.bandwidth_rates()
        assert rates
        # Normalising by alive time keeps churned nodes' rates at the same
        # tens-of-Bps level as always-up nodes, instead of scaling them
        # down with their downtime; everyone lands in a narrow band.
        mean_rate = sum(rates) / len(rates)
        assert 1.0 < mean_rate < 50.0
        assert max(rates) < 4.0 * mean_rate

    def test_alive_seconds_capped_by_window(self, churned_result):
        result = churned_result
        window = result.config.duration - result.config.warmup
        for node in result.cluster.nodes:
            assert 0.0 <= result._alive_seconds(node) <= window + 1e-6


class TestAuditSelection:
    def test_alive_only_restricts(self, churned_result):
        all_audits = churned_result.availability_audit(
            control_only=False, alive_only=False
        )
        live_audits = churned_result.availability_audit(
            control_only=False, alive_only=True
        )
        assert set(live_audits) <= set(all_audits)
        for node in live_audits:
            assert churned_result.network.is_alive(node)

    def test_estimates_within_unit_interval(self, churned_result):
        for estimate, truth in churned_result.availability_audit(
            control_only=False
        ).values():
            assert 0.0 <= estimate <= 1.0
            assert 0.0 <= truth <= 1.0

    def test_min_pings_filter(self, churned_result):
        strict = churned_result.availability_audit(
            control_only=False, min_pings=1000
        )
        assert strict == {}


class TestDiscoveryAccessors:
    def test_cdf_matches_delays(self, churned_result):
        summary = churned_result.summary()
        delays = summary.first_monitor_delays()
        cdf = summary.discovery_cdf()
        if delays:
            assert cdf[-1][1] == 1.0
            assert cdf[0][0] == min(delays)

    def test_nth_subset_of_first(self, churned_result):
        summary = churned_result.summary()
        first = summary.nth_monitor_delays(1)
        second = summary.nth_monitor_delays(2)
        assert len(second) <= len(first)
