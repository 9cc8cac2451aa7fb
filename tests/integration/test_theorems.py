"""End-to-end tests of the paper's stated guarantees.

* Theorem 1: nodes satisfying the consistency condition that stay alive
  long enough eventually discover each other.
* Theorem 2: a dead node is eventually deleted from all coarse views.
* Verifiability: reported monitors can be audited by any third party, and
  forged reports are caught.
* Consistency: churn never flips an existing monitoring relationship.
"""

import pytest
from relation_oracle import monitors_of

from repro.core.reporting import verify_monitor_report
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.experiments.scenarios import scenario


@pytest.fixture(scope="module")
def stat_result():
    return run_simulation(
        SimulationConfig(model="STAT", n=50, duration=4200.0, warmup=600.0, seed=21)
    )


class TestTheorem1EventualDiscovery:
    def test_stable_pairs_discover_each_other(self, stat_result):
        """Every universe-level monitoring pair among long-lived nodes is
        discovered within the (generous) run horizon."""
        cluster = stat_result.cluster
        relation = cluster.relation
        # Initial nodes were alive the whole run (STAT): all pairs among
        # them satisfying the condition must have been discovered.
        initial = [n for n in cluster.nodes if n < 50]
        missing = []
        for target in initial:
            node = cluster.nodes[target]
            for monitor in monitors_of(relation.condition, target, initial):
                if monitor in initial and monitor not in node.ps:
                    missing.append((monitor, target))
        assert not missing, f"undiscovered stable pairs: {missing[:5]}"

    def test_ts_discovered_symmetrically(self, stat_result):
        cluster = stat_result.cluster
        initial = [n for n in cluster.nodes if n < 50]
        for monitor_id in initial:
            monitor = cluster.nodes[monitor_id]
            for target in cluster.relation.targets_of(monitor_id):
                if target in initial:
                    assert target in monitor.ts


class TestTheorem2DeadNodeCleanup:
    def test_dead_node_purged_from_all_views(self):
        config = SimulationConfig(
            model="STAT", n=40, duration=1200.0, warmup=900.0, seed=8
        )
        # Run manually so we can kill a node mid-run.
        from repro.experiments.runner import run_simulation as _run

        result = _run(config)
        cluster = result.cluster
        sim = cluster.sim
        victim = 0
        cluster.take_down(victim, death=True)
        # T* = cvs * ln(N) periods w.h.p.; run 3x that.
        cvs = result.avmon_config.cvs
        import math

        horizon = sim.now + 3 * cvs * math.log(40) * 60.0
        sim.run_until(horizon)
        holders = [
            node.id
            for node in cluster.nodes.values()
            if victim in node.cv
        ]
        assert holders == [], f"dead node still in views of {holders}"


class TestVerifiability:
    def test_reported_monitors_verify(self, stat_result):
        cluster = stat_result.cluster
        condition = cluster.relation.condition
        reporters = [n for n in cluster.nodes.values() if len(n.ps) >= 2]
        assert reporters
        for node in reporters[:10]:
            reported = node.report_monitors(min_monitors=2)
            verdict = verify_monitor_report(condition, node.id, reported, 2)
            assert verdict.satisfied
            assert verdict.all_genuine

    def test_forged_report_caught(self, stat_result):
        cluster = stat_result.cluster
        condition = cluster.relation.condition
        subject = 0
        accomplice = next(
            u for u in range(1, 2000) if not condition.holds(u, subject)
        )
        verdict = verify_monitor_report(condition, subject, [accomplice])
        assert not verdict.satisfied


class TestConsistencyUnderChurn:
    def test_monitoring_relationships_never_flip(self):
        """Run a churned simulation; every PS/TS entry anywhere must satisfy
        the consistency condition, and no entry is ever removed (monitor
        sets only grow - churn cannot reshape them, unlike the DHT)."""
        result = run_simulation(scenario("SYNTH-BD", 40, "test", seed=13))
        condition = result.cluster.relation.condition
        for node in result.cluster.nodes.values():
            for monitor in node.ps:
                assert condition.holds(monitor, node.id)
            for target in node.ts:
                assert condition.holds(node.id, target)

    def test_cv_capacity_respected_everywhere(self):
        result = run_simulation(scenario("SYNTH", 40, "test", seed=14))
        cvs = result.avmon_config.cvs
        for node in result.cluster.nodes.values():
            assert len(node.cv) <= cvs
            assert node.id not in node.cv
