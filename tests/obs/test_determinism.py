"""The CI-gateable contract: identical seeded runs -> byte-equal
deterministic snapshots, with wall-clock series structurally excluded.

Three fabrics are exercised — the simulator core, the worker fleet (real
subprocesses, SIGKILL chaos), and the serving surface over the in-memory
overlay — each run twice through a fresh registry.
"""

from __future__ import annotations

import asyncio
import json

from repro.experiments.backends import WorkerFleetBackend
from repro.experiments.orchestrator import run_configs
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.obs import Journal, MetricsRegistry
from repro.obs.registry import WALL


class TestSimulatorDeterminism:
    def _run(self):
        registry = MetricsRegistry()
        config = SimulationConfig(
            model="STAT", n=24, duration=900.0, warmup=300.0, seed=3
        )
        run_simulation(config, obs=registry)
        return registry

    def test_two_runs_byte_equal(self):
        first, second = self._run(), self._run()
        assert first.deterministic_json() == second.deterministic_json()

    def test_wall_series_excluded_from_compared_bytes(self):
        registry = self._run()
        timer = registry.get("sim.relation.scan_seconds")
        assert timer is not None and timer.kind == WALL
        assert timer.count > 0  # the wall series genuinely recorded data
        compared = json.loads(registry.deterministic_json())
        assert "sim.relation.scan_seconds" not in compared
        assert "sim.relation.scan_seconds" in registry.wall_snapshot()
        # ...and the deterministic slice is non-trivial.
        assert compared["sim.engine.events_processed"] > 0
        assert compared["sim.condition.hash_evaluations"] > 0


def _fleet_run(tmp_path, name):
    """A chaos fleet sweep with obs attached; returns (registry, journal, fleet)."""
    from repro.experiments.store import SummaryStore

    registry = MetricsRegistry()
    journal = Journal(tmp_path / f"{name}.jsonl")
    fleet = WorkerFleetBackend(
        2,
        retry_backoff=0.05,
        poll_interval=0.02,
        chaos_kill_after_starts=1,
    )
    fleet.attach_obs(registry, journal)
    configs = [
        SimulationConfig(model="STAT", n=24, duration=900.0, warmup=300.0, seed=s)
        for s in range(1, 5)
    ]
    run_configs(configs, store=SummaryStore(tmp_path / name), backend=fleet)
    journal.close()
    return registry, journal, fleet


class TestFleetDeterminism:
    def test_chaos_sweep_byte_equal_and_journaled(self, tmp_path):
        reg1, jr1, fleet1 = _fleet_run(tmp_path, "run1")
        reg2, jr2, fleet2 = _fleet_run(tmp_path, "run2")

        # The SIGKILL actually happened and was journaled...
        assert jr1.count("fleet.worker_death") >= 1
        assert jr1.count("fleet.retry") >= 1
        assert jr1.count("fleet.lease_granted") >= 4
        # ...heartbeats are timing-dependent, so they are wall-kind and
        # never part of the compared bytes.
        snap1 = json.loads(reg1.deterministic_json())
        assert "fleet.heartbeat" not in snap1
        heartbeat = reg1.get("fleet.heartbeat")
        if heartbeat is not None:
            assert heartbeat.kind == WALL

        assert reg1.deterministic_json() == reg2.deterministic_json()
        assert snap1["fleet.worker_death"] == 1
        assert snap1["fleet.retry"] == 1

    def test_stats_line_matches_journal_and_stats(self, tmp_path):
        registry, journal, fleet = _fleet_run(tmp_path, "line")
        line = fleet.stats_line()
        assert line == (
            f"fleet: workers={fleet.workers} "
            f"spawned={journal.count('fleet.worker_spawned')} "
            f"deaths={journal.count('fleet.worker_death')} "
            f"retries={journal.count('fleet.retry')} "
            f"leases_expired={journal.count('fleet.lease_expired')}"
        )
        assert fleet.stats.deaths == journal.count("fleet.worker_death")
        assert fleet.stats.retries == journal.count("fleet.retry")
        assert fleet.stats.workers_spawned == journal.count("fleet.worker_spawned")


class TestServeDeterminism:
    def _run(self):
        from repro.live.memory_transport import MemoryOverlay
        from repro.live.supervisor import LiveConfig
        from repro.serve.backend import memory_backend
        from repro.serve.http import MemoryHttpClient
        from repro.serve.service import AvailabilityService, ServeConfig

        registry = MetricsRegistry()

        async def workload(overlay):
            await asyncio.sleep(10.0)
            backend = memory_backend(overlay)
            await backend.start()
            service = AvailabilityService(
                backend,
                ServeConfig(),
                clock=asyncio.get_running_loop().time,
                registry=registry,
            )
            http = MemoryHttpClient(service)
            try:
                for target in (1, 2, 3, 2, 1):
                    await http.get(f"/availability/{target}?l=1")
                await http.get("/nodes")
                await http.get("/healthz")
            finally:
                await backend.close()

        overlay = MemoryOverlay(
            LiveConfig(nodes=12, duration=20.0, seed=7), workload=workload
        )
        overlay.run()
        return registry

    def test_two_runs_byte_equal(self):
        first, second = self._run(), self._run()
        text = first.deterministic_json()
        assert text == second.deterministic_json()
        snap = json.loads(text)
        assert snap["serve.query.monitors_verified"] > 0
        assert snap["serve.cache.hits"] > 0
        # Latency histograms are wall-kind; provably outside the bytes.
        assert not any("latency" in name for name in snap)
        assert any("latency" in name for name in first.wall_snapshot())
