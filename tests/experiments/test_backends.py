"""Execution-backend tests: equivalence, the killable fleet, the registry.

The load-bearing guarantees:

* serial, pool and fleet execution produce byte-identical summary JSON
  (determinism survives any execution strategy);
* SIGKILLing a fleet worker mid-sweep costs nothing — the grid completes
  and the results (and the store's on-disk bytes) still match serial;
* a warm store means a fleet run computes (and spawns) nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket

import pytest

from repro.experiments.backends import (
    ExecutionBackend,
    LocalPoolBackend,
    SerialBackend,
    WorkerFleetBackend,
    resolve_backend,
    split_error,
)
from repro.experiments.orchestrator import SweepError, run_configs
from repro.experiments.runner import SimulationConfig
from repro.experiments.store import SummaryStore, config_key, stable_key_hash, store_filename
from repro.experiments.store_backends import FilesystemBackend
from repro.experiments.store_server import StoreDaemonThread
from repro.registry import REGISTRY, UnknownComponentError, component_names


def _configs(count: int = 4, n: int = 24) -> list:
    return [
        SimulationConfig(model="STAT", n=n, duration=900.0, warmup=300.0, seed=s)
        for s in range(1, count + 1)
    ]


def _fast_fleet(workers: int = 2, **overrides) -> WorkerFleetBackend:
    """A fleet tuned for test latencies (sub-second polling/backoff)."""
    params = dict(
        lease_timeout=30.0,
        retry_backoff=0.05,
        poll_interval=0.02,
    )
    params.update(overrides)
    return WorkerFleetBackend(workers, **params)


@pytest.fixture(scope="module")
def serial_json():
    return [s.to_json() for s in run_configs(_configs())]


class TestBackendEquivalence:
    def test_pool_matches_serial(self, serial_json):
        summaries = run_configs(_configs(), backend=LocalPoolBackend(2))
        assert [s.to_json() for s in summaries] == serial_json

    def test_fleet_matches_serial(self, serial_json):
        summaries = run_configs(_configs(), backend=_fast_fleet())
        assert [s.to_json() for s in summaries] == serial_json

    def test_fleet_over_url_store_matches_serial(self, tmp_path, serial_json):
        """The sweep's store is itself a daemon: the fleet's private
        coordinator reads and writes through to it."""
        with StoreDaemonThread(FilesystemBackend(tmp_path)) as shared:
            store = SummaryStore.open(shared.url)
            try:
                summaries = run_configs(
                    _configs(), store=store, backend=_fast_fleet()
                )
            finally:
                store.backend.close()
        assert [s.to_json() for s in summaries] == serial_json
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            store_filename(c) for c in _configs()
        )

    def test_backend_by_name(self, serial_json):
        for name in ("serial", "POOL"):
            summaries = run_configs(_configs(), jobs=2, backend=name)
            assert [s.to_json() for s in summaries] == serial_json

    def test_explicit_serial_ignores_jobs(self, serial_json):
        summaries = run_configs(_configs(), jobs=8, backend=SerialBackend())
        assert [s.to_json() for s in summaries] == serial_json


class TestFleetFaultTolerance:
    def test_sigkilled_worker_costs_nothing(self, tmp_path, serial_json):
        """Chaos-SIGKILL one worker mid-sweep: the grid completes, results
        and on-disk store bytes are identical to a serial run."""
        configs = _configs()
        serial_dir = tmp_path / "serial"
        run_configs(configs, store=SummaryStore(serial_dir))

        fleet_dir = tmp_path / "fleet"
        fleet = _fast_fleet(2, chaos_kill_after_starts=1)
        summaries = run_configs(
            configs, store=SummaryStore(fleet_dir), backend=fleet
        )
        assert [s.to_json() for s in summaries] == serial_json
        assert fleet.stats.deaths >= 1
        assert fleet.stats.retries >= 1
        assert fleet.stats.workers_spawned > 2  # the victim was replaced
        names = sorted(p.name for p in serial_dir.iterdir())
        assert names == [store_filename(c) for c in sorted(
            configs, key=store_filename
        )]
        for name in names:
            assert (fleet_dir / name).read_bytes() == (
                serial_dir / name
            ).read_bytes()

    def test_warm_store_computes_and_spawns_nothing(self, tmp_path, serial_json):
        configs = _configs()
        run_configs(configs, store=SummaryStore(tmp_path))
        store = SummaryStore(tmp_path)
        fleet = _fast_fleet(2)
        summaries = run_configs(configs, store=store, backend=fleet)
        assert [s.to_json() for s in summaries] == serial_json
        assert store.hits == len(configs)
        assert store.writes == 0
        assert fleet.stats.workers_spawned == 0

    def test_worker_death_exhausts_retries(self):
        """With max_attempts=1 a killed worker's cell fails (no retry) and
        the failure says so."""
        fleet = _fast_fleet(1, max_attempts=1, chaos_kill_after_starts=1)
        with pytest.raises(SweepError) as excinfo:
            run_configs(_configs(1, n=64), backend=fleet)
        failure = excinfo.value.failures[0]
        assert "died" in failure.error
        assert failure.attempts == 1
        assert fleet.stats.deaths == 1
        assert fleet.stats.retries == 0

    def test_fleet_cell_exception_fails_without_retry(self):
        def boom_factory(n, rng=None, **_):
            raise RuntimeError("boom")

        REGISTRY.register("churn", "TEST-FLEET-BOOM", boom_factory, replace=True)
        try:
            bad = SimulationConfig(
                model="TEST-FLEET-BOOM", n=16, duration=900.0, warmup=300.0
            )
            good = _configs(1)[0]
            fleet = _fast_fleet(2)
            with pytest.raises(SweepError) as excinfo:
                run_configs([good, bad], backend=fleet)
            error = excinfo.value
            assert len(error.failures) == 1
            failure = error.failures[0]
            assert failure.index == 1
            assert "boom" in failure.error
            assert "Traceback" in failure.traceback
            assert failure.attempts == 1  # deterministic raise: no retry
            assert fleet.stats.retries == 0
        finally:
            REGISTRY.unregister("churn", "TEST-FLEET-BOOM")


class _StopFirstLeaseholder:
    """Journal stand-in that SIGSTOPs the child granted the first lease,
    the moment the parent learns of the grant: alive, but silent."""

    def __init__(self) -> None:
        self.events = []
        self.pids = {}
        self.stopped = None

    def emit(self, event: str, **fields) -> None:
        self.events.append((event, fields))
        if event == "fleet.worker_spawned":
            self.pids[fields["worker"]] = fields["pid"]
        elif event == "fleet.lease_granted" and self.stopped is None:
            self.stopped = self.pids[fields["worker"]]
            os.kill(self.stopped, signal.SIGSTOP)


class TestFleetLeaseExpiry:
    def test_silent_worker_is_expired_killed_and_replaced(self, tmp_path):
        # Cells long enough (~0.4 s) that the victim is still computing
        # when the parent's next poll reports its grant.
        configs = _configs(3, n=96)
        serial = [s.to_json() for s in run_configs(configs)]
        journal = _StopFirstLeaseholder()
        fleet = _fast_fleet(2, lease_timeout=1.0)
        fleet.attach_obs(None, journal)
        summaries = run_configs(
            configs, store=SummaryStore(tmp_path), backend=fleet
        )
        assert [s.to_json() for s in summaries] == serial
        assert fleet.stats_line() == (
            "fleet: workers=2 spawned=3 deaths=1 retries=1 leases_expired=1"
        )
        by_name = dict(journal.events)  # one of each of these
        victim = by_name["fleet.lease_expired"]["worker"]
        assert journal.pids[victim] == journal.stopped
        death = by_name["fleet.worker_death"]
        assert death["worker"] == victim
        assert "lost its lease" in death["reason"]
        assert death["exitcode"] == -signal.SIGKILL
        assert by_name["fleet.retry"]["cell"] == by_name["fleet.lease_expired"]["cell"]
        with pytest.raises(ProcessLookupError):  # killed *and* reaped
            os.kill(journal.stopped, 0)


@pytest.fixture()
def private_daemons(monkeypatch):
    """Every daemon a fleet starts for itself during the test."""
    started = []
    start = StoreDaemonThread.start
    monkeypatch.setattr(
        StoreDaemonThread, "start", lambda self: started.append(self) or start(self)
    )
    return started


def _assert_nothing_left_behind(private_daemons) -> None:
    assert multiprocessing.active_children() == []
    (daemon,) = private_daemons
    assert not daemon._thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", daemon.port), timeout=1.0)


class TestFleetLeavesNothingBehind:
    def test_after_a_clean_sweep(self, private_daemons):
        run_configs(_configs(), backend=_fast_fleet(2))
        _assert_nothing_left_behind(private_daemons)

    def test_after_unwinding_through_a_raising_progress_callback(
        self, private_daemons
    ):
        def progress(done, total, label, wall):
            raise RuntimeError("progress sink broke")

        fleet = _fast_fleet(2)
        with pytest.raises(RuntimeError, match="progress sink broke"):
            run_configs(_configs(), backend=fleet, progress=progress)
        assert fleet.stats.workers_spawned == 2  # it really was mid-sweep
        _assert_nothing_left_behind(private_daemons)


class TestCellFailureMetadata:
    def test_failure_carries_traceback_and_store_key(self):
        def boom_factory(n, rng=None, **_):
            raise RuntimeError("boom")

        REGISTRY.register("churn", "TEST-META-BOOM", boom_factory, replace=True)
        try:
            bad = SimulationConfig(
                model="TEST-META-BOOM", n=16, duration=900.0, warmup=300.0
            )
            with pytest.raises(SweepError) as excinfo:
                run_configs([bad])
            failure = excinfo.value.failures[0]
            assert failure.error == "RuntimeError: boom"
            assert failure.traceback.startswith("Traceback")
            assert failure.store_key == stable_key_hash(config_key(bad))
            # the store key travels into the SweepError message too
            assert failure.store_key in str(excinfo.value)
            assert failure.detail() == failure.traceback
        finally:
            REGISTRY.unregister("churn", "TEST-META-BOOM")

    def test_split_error(self):
        assert split_error("Traceback ...\n  File x\nRuntimeError: boom\n") == (
            "RuntimeError: boom"
        )
        assert split_error("") == "unknown error"


class TestOrchestratorBackendContract:
    def test_duplicate_deliveries_are_ignored(self):
        class DoubleDelivery(ExecutionBackend):
            name = "DOUBLE"

            def execute(self, payloads, record, *, store=None):
                from repro.experiments.backends import execute_cell

                for payload in payloads:
                    outcome = execute_cell(payload)
                    record(*outcome)
                    record(*outcome)  # at-least-once backend: same cell twice

        configs = _configs(2)
        seen = []
        summaries = run_configs(
            configs,
            backend=DoubleDelivery(),
            progress=lambda done, total, label, _: seen.append((done, total)),
        )
        assert len(summaries) == 2
        assert seen == [(1, 2), (2, 2)]  # progress fired once per cell

    def test_skipped_cell_surfaces_as_failure(self):
        class Lazy(ExecutionBackend):
            name = "LAZY"

            def execute(self, payloads, record, *, store=None):
                return  # executes nothing at all

        with pytest.raises(SweepError) as excinfo:
            run_configs(_configs(2), backend=Lazy())
        assert len(excinfo.value.failures) == 2
        assert "without executing" in excinfo.value.failures[0].error


class TestBackendRegistry:
    def test_backend_kind_registered(self):
        names = component_names("backend")
        assert {"SERIAL", "POOL", "FLEET"} <= set(names)

    def test_resolve_by_name_folds_case(self):
        backend = resolve_backend("pool", jobs=3)
        assert isinstance(backend, LocalPoolBackend)
        assert backend.jobs == 3
        fleet = resolve_backend("fleet", jobs=5)
        assert isinstance(fleet, WorkerFleetBackend)
        assert fleet.workers == 5

    def test_resolve_passthrough_and_none(self):
        instance = SerialBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend(None) is None
        with pytest.raises(ValueError):
            resolve_backend(instance, max_attempts=2)

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownComponentError):
            resolve_backend("warp-drive")

    def test_fleet_params_validated(self):
        with pytest.raises(ValueError):
            WorkerFleetBackend(0)
        with pytest.raises(ValueError):
            WorkerFleetBackend(1, max_attempts=0)
        with pytest.raises(ValueError):
            WorkerFleetBackend(1, lease_timeout=0.0)
