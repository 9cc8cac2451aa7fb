"""Unit tests for metric collectors and the hub."""

import pytest

from repro.experiments.summary import SimulationSummary
from repro.metrics.collectors import (
    ComputationCollector,
    DiscoveryTimeCollector,
    MetricsHub,
    PingActivityCollector,
)


def summary_of(collector):
    """The figure accessors read the collector through a summary."""
    return SimulationSummary(monitor_delays=collector.delays_by_rank())


class TestDiscoveryTimeCollector:
    def test_first_monitor_delay(self):
        collector = DiscoveryTimeCollector()
        collector.track(1, join_time=100.0)
        collector.on_monitor_discovered(1, time=130.0, ps_size=1)
        assert summary_of(collector).first_monitor_delays() == [30.0]

    def test_untracked_ignored(self):
        collector = DiscoveryTimeCollector()
        collector.on_monitor_discovered(1, time=130.0, ps_size=1)
        assert summary_of(collector).first_monitor_delays() == []

    def test_nth_delays(self):
        collector = DiscoveryTimeCollector()
        collector.track(1, 0.0)
        collector.on_monitor_discovered(1, 10.0, 1)
        collector.on_monitor_discovered(1, 25.0, 2)
        collector.on_monitor_discovered(1, 60.0, 3)
        assert summary_of(collector).nth_monitor_delays(2) == [25.0]
        assert summary_of(collector).nth_monitor_delays(3) == [60.0]

    def test_nth_only_first_occurrence(self):
        collector = DiscoveryTimeCollector()
        collector.track(1, 0.0)
        collector.on_monitor_discovered(1, 10.0, 1)
        collector.on_monitor_discovered(1, 50.0, 1)
        assert summary_of(collector).first_monitor_delays() == [10.0]

    def test_invalid_nth(self):
        with pytest.raises(ValueError):
            summary_of(DiscoveryTimeCollector()).nth_monitor_delays(0)

    def test_undiscovered_count(self):
        collector = DiscoveryTimeCollector()
        collector.track(1, 0.0)
        collector.track(2, 0.0)
        collector.on_monitor_discovered(1, 10.0, 1)
        assert collector.undiscovered_count() == 1

    def test_average_drops_outlier(self):
        collector = DiscoveryTimeCollector()
        for node, delay in ((1, 10.0), (2, 20.0), (3, 6000.0)):
            collector.track(node, 0.0)
            collector.on_monitor_discovered(node, delay, 1)
        assert summary_of(collector).average_discovery_time(drop_top=1) == 15.0
        assert summary_of(collector).average_discovery_time(drop_top=0) == pytest.approx(
            2010.0
        )

    def test_track_idempotent(self):
        collector = DiscoveryTimeCollector()
        collector.track(1, 0.0)
        collector.on_monitor_discovered(1, 10.0, 1)
        collector.track(1, 500.0)  # must not reset
        assert summary_of(collector).first_monitor_delays() == [10.0]


class TestComputationCollector:
    def test_rates(self):
        collector = ComputationCollector()
        collector.on_computations(1, 600)
        collector.on_computations(1, 600)
        assert collector.total(1) == 1200

    def test_selection_includes_zero_nodes(self):
        collector = ComputationCollector()
        collector.on_computations(1, 60)
        assert [collector.total(node) for node in (1, 2)] == [60, 0]


class TestPingActivityCollector:
    def test_useless_rate(self):
        collector = PingActivityCollector()
        collector.on_monitor_ping_sent(1, useless=True)
        collector.on_monitor_ping_sent(1, useless=False)
        collector.on_monitor_ping_sent(1, useless=True)
        assert collector.useless_total(1) == 2
        assert collector.useless_total(2) == 0


class TestMetricsHub:
    def test_rate_metrics_gated_until_armed(self):
        hub = MetricsHub()
        hub.on_computations(1, 100)
        hub.on_monitor_ping_sent(1, 2, useless=True)
        assert hub.computation.total(1) == 0
        assert hub.pings.useless_total(1) == 0
        hub.arm(3600.0)
        hub.on_computations(1, 100)
        hub.on_monitor_ping_sent(1, 2, useless=True)
        assert hub.computation.total(1) == 100
        assert hub.pings.useless_total(1) == 1
        assert hub.armed_at == 3600.0

    def test_discovery_always_active(self):
        hub = MetricsHub()
        hub.discovery.track(1, 0.0)
        hub.on_monitor_discovered(1, 5, time=30.0, ps_size=1)
        assert summary_of(hub.discovery).first_monitor_delays() == [30.0]

    def test_monitor_targets_recorded(self):
        hub = MetricsHub()
        hub.on_target_discovered(3, 9, time=10.0)
        hub.on_target_discovered(3, 11, time=12.0)
        assert hub.monitor_targets[3] == {9, 11}
