"""Opt-in simulator hooks: callback gauges and the relation scan counters."""

from __future__ import annotations

from repro.core.condition import ConsistencyCondition
from repro.core.relation import MonitorRelation
from repro.obs import MetricsRegistry, observe_condition, observe_relation, observe_simulator
from repro.obs.registry import WALL
from repro.sim.engine import Simulator


def _noop():
    return None


class TestObserveSimulator:
    def test_gauges_track_engine_state(self):
        registry = MetricsRegistry()
        sim = Simulator()
        observe_simulator(registry, sim)
        for index in range(10):
            sim.schedule(float(index), _noop)
        snap = registry.deterministic_snapshot()
        assert snap["sim.engine.pending_events"] == 10
        assert snap["sim.engine.events_processed"] == 0
        sim.run_until(100.0)
        snap = registry.deterministic_snapshot()
        assert snap["sim.engine.pending_events"] == 0
        assert snap["sim.engine.events_processed"] == 10

    def test_heap_compactions_counted(self):
        registry = MetricsRegistry()
        sim = Simulator()
        observe_simulator(registry, sim)
        # Compaction triggers once corpses pass the minimum (64) AND half
        # the queue: with 130 scheduled it fires at the 66th cancel
        # (66 * 2 > 130), leaving 64 live entries; the last 4 cancels
        # accumulate as fresh corpses.
        handles = [sim.schedule(1.0, _noop) for _ in range(130)]
        assert sim.heap_compactions == 0
        for handle in handles[:70]:
            handle.cancel()
        assert sim.heap_compactions == 1
        snap = registry.deterministic_snapshot()
        assert snap["sim.engine.heap_compactions"] == 1
        assert snap["sim.engine.cancelled_pending"] == 4
        assert snap["sim.engine.pending_events"] == 64

    def test_hooks_cost_nothing_unobserved(self):
        # The engine carries no registry reference at all; attaching an
        # observer must not mutate the simulator.
        sim = Simulator()
        before = {name: getattr(sim, name) for name in ("now", "_dead")}
        observe_simulator(MetricsRegistry(), sim)
        assert {name: getattr(sim, name) for name in ("now", "_dead")} == before


class TestObserveCondition:
    def test_hash_evaluations_gauge(self):
        registry = MetricsRegistry()
        condition = ConsistencyCondition(k=4, n=64)
        observe_condition(registry, condition)
        condition.holds(1, 2)
        condition.holds(3, 4)
        snap = registry.deterministic_snapshot()
        assert snap["sim.condition.hash_evaluations"] == condition.hash_evaluations
        assert snap["sim.condition.hash_evaluations"] >= 2


class TestObserveRelation:
    def test_scan_counters_and_wall_timer(self):
        registry = MetricsRegistry()
        condition = ConsistencyCondition(k=4, n=64)
        relation = MonitorRelation(condition)
        relation.add_nodes(range(50))
        observe_relation(registry, relation)
        relation.targets_of(1)
        relation.targets_of(2)
        det = registry.deterministic_snapshot()
        assert det["sim.relation.scans"] == 2
        assert det["sim.relation.pairs_scanned"] > 0
        assert det["sim.relation.universe"] == 50
        assert det["sim.relation.index_entries"] == relation.index_entries()
        # The phase timer is wall-kind: present in the registry, excluded
        # from the deterministic slice.
        timer = registry.get("sim.relation.scan_seconds")
        assert timer is not None and timer.kind == WALL
        assert timer.count == 2
        assert "sim.relation.scan_seconds" not in det

    def test_unobserved_relation_scans_identically(self):
        condition_a = ConsistencyCondition(k=4, n=64)
        condition_b = ConsistencyCondition(k=4, n=64)
        plain = MonitorRelation(condition_a)
        observed = MonitorRelation(condition_b)
        for relation in (plain, observed):
            relation.add_nodes(range(40))
        observed.observe(MetricsRegistry())
        assert plain.targets_of(7) == observed.targets_of(7)
        assert plain.targets_of(9) == observed.targets_of(9)
