"""Remote fleet end-to-end: parents and workers meeting at one daemon.

Everything here runs against a real asyncio store daemon on a localhost
socket (marked ``udp`` with the other socket-opening tests); workers run
as threads so deterministic-failure scenarios can inject registry
components into their process.  The guarantees under test:

* a remote sweep's summaries are byte-identical to serial, also when
  the grid lists one config twice (two cells, one store key, one task);
* two parents sweeping one grid through one daemon publish one task per
  store key — ``fleet.cell_done`` keys never collide across journals;
* a dead parent's tasks outlive it on the board: a worker finishes the
  queued one and the survivor adopts it, and the survivor re-queues the
  one whose lease lapsed;
* a restarted daemon forgets its board, and the parent republishes;
* a worker that goes silent expires its lease and the parent retries
  per the shared RetryPolicy schedule, while a worker raising
  deterministically fails the cell immediately with no retry.
"""

from __future__ import annotations

import io
import socket
import threading
import time

import pytest

from repro.experiments.backends import RemoteWorkerBackend, run_fleet_worker
from repro.experiments.backends.remote import _encode_config, _worker_loop
from repro.experiments.orchestrator import SweepError, run_configs
from repro.experiments.runner import SimulationConfig
from repro.experiments.store import SummaryStore, config_key
from repro.experiments.store_backends import FilesystemBackend, SharedStoreBackend
from repro.experiments.store_server import StoreDaemonThread
from repro.registry import REGISTRY


def _configs(count: int = 3, n: int = 20) -> list:
    return [
        SimulationConfig(model="STAT", n=n, duration=900.0, warmup=300.0, seed=s)
        for s in range(1, count + 1)
    ]


@pytest.fixture()
def daemon(tmp_path):
    """A live store daemon; yields (url, root directory)."""
    with StoreDaemonThread(FilesystemBackend(tmp_path)) as live:
        yield live.url, tmp_path


def _start_worker(url: str, name: str, max_idle: float = 20.0):
    thread = threading.Thread(
        target=run_fleet_worker,
        args=(url,),
        kwargs=dict(poll_interval=0.05, max_idle=max_idle, name=name),
        daemon=True,
    )
    thread.start()
    return thread


def _parent(owner: str, **overrides) -> RemoteWorkerBackend:
    params = dict(lease_ttl=5.0, poll_interval=0.05, retry_backoff=0.05)
    params.update(overrides)
    return RemoteWorkerBackend(owner=owner, **params)


@pytest.mark.udp
class TestRemoteBackend:
    def test_remote_matches_serial_byte_for_byte(self, daemon):
        url, _ = daemon
        _start_worker(url, "w0")
        backend = _parent("solo")
        summaries = run_configs(
            _configs(), store=SummaryStore.open(url), backend=backend
        )
        baseline = [s.to_json() for s in run_configs(_configs())]
        assert [s.to_json() for s in summaries] == baseline
        counts = backend._event_counts
        assert counts.get("fleet.remote_attach") == 1
        assert counts.get("fleet.cell_done") == 3
        assert backend.stats_line().startswith("remote: workers=1 done=3")

    def test_one_config_listed_twice_matches_serial(self, daemon):
        url, _ = daemon
        _start_worker(url, "w0")
        configs = _configs(2)
        grid = [configs[0], configs[1], configs[0]]
        backend = _parent("twice")
        summaries = run_configs(grid, store=SummaryStore.open(url), backend=backend)
        baseline = [s.to_json() for s in run_configs(grid)]
        assert [s.to_json() for s in summaries] == baseline
        # Two store keys, two tasks, two computations for three cells.
        assert backend._event_counts.get("fleet.cell_done") == 2
        coordinator = SharedStoreBackend(url)
        _, listing = coordinator.call("GET", "/tasks")
        coordinator.close()
        assert listing["states"] == {"done": 2}

    def test_requires_a_shared_store(self, tmp_path):
        backend = _parent("nostore")
        with pytest.raises(ValueError, match="store daemon"):
            run_configs(_configs(1), backend=backend)
        with pytest.raises(ValueError, match="store daemon"):
            run_configs(
                _configs(1), store=SummaryStore(tmp_path), backend=backend
            )

    def test_warm_store_computes_nothing(self, daemon):
        url, _ = daemon
        _start_worker(url, "w0")
        run_configs(
            _configs(), store=SummaryStore.open(url), backend=_parent("cold")
        )
        warm_backend = _parent("warm")
        warm_store = SummaryStore.open(url)
        summaries = run_configs(
            _configs(), store=warm_store, backend=warm_backend
        )
        assert len(summaries) == 3
        assert (warm_store.hits, warm_store.writes) == (3, 0)
        # Everything was a store hit: the backend never even published.
        assert warm_backend._event_counts == {}

    def test_two_parents_split_the_grid_without_double_compute(self, daemon):
        url, _ = daemon
        for i in range(2):
            _start_worker(url, f"w{i}")
        results = {}

        def sweep(tag):
            backend = _parent(tag)
            summaries = run_configs(
                _configs(4), store=SummaryStore.open(url), backend=backend
            )
            results[tag] = (summaries, backend)

        threads = [
            threading.Thread(target=sweep, args=(tag,))
            for tag in ("parentA", "parentB")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert set(results) == {"parentA", "parentB"}
        json_a = [s.to_json() for s in results["parentA"][0]]
        json_b = [s.to_json() for s in results["parentB"][0]]
        assert json_a == json_b
        done_a = results["parentA"][1]._event_counts.get("fleet.cell_done", 0)
        done_b = results["parentB"][1]._event_counts.get("fleet.cell_done", 0)
        adopted_a = results["parentA"][1]._event_counts.get(
            "fleet.cell_adopted", 0
        )
        adopted_b = results["parentB"][1]._event_counts.get(
            "fleet.cell_adopted", 0
        )
        # Every cell computed exactly once across both parents; the rest
        # were adoptions of the sibling's stored results.
        assert done_a + done_b == 4
        assert done_a + adopted_a == 4
        assert done_b + adopted_b == 4

    def test_dead_parent_is_taken_over(self, daemon):
        url, _ = daemon
        configs = _configs(2)
        store = SummaryStore.open(url)
        keys = [SummaryStore.name_for(config_key(config)) for config in configs]
        # "deadparent" publishes both cells, each task named by its store
        # key with the honest payload for that key, and a zombie worker of
        # its leases the second and dies; then the parent crashes too.
        coordinator = SharedStoreBackend(url)

        def dead_publish(index):
            coordinator.call(
                "POST",
                "/tasks",
                {"id": keys[index], "payload": _encode_config(configs[index]),
                 "key": keys[index], "lease_ttl": 0.3,
                 "publisher": "deadparent"},
            )

        dead_publish(1)
        _, leased = coordinator.call("POST", "/tasks/claim", {"worker": "zombie"})
        assert leased["task"]["id"] == keys[1]
        dead_publish(0)
        backend = _parent("survivor")
        results = {}
        survivor = threading.Thread(
            target=lambda: results.setdefault(
                "summaries", run_configs(configs, store=store, backend=backend)
            ),
            daemon=True,
        )
        survivor.start()
        # The survivor's two publishes find the live keys and follow them;
        # only then does a real worker attach.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            _, metrics = coordinator.call("GET", "/metrics")
            if metrics["deterministic"].get("store.tasks_published", 0) >= 4:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("survivor never published its cells")
        _start_worker(url, "w0")
        survivor.join(timeout=60.0)
        assert not survivor.is_alive(), "survivor never finished the grid"
        baseline = [s.to_json() for s in run_configs(configs)]
        assert [s.to_json() for s in results["summaries"]] == baseline
        counts = backend._event_counts
        # The worker ran the dead parent's queued task: the survivor
        # adopts it.  The zombie's lease lapsed: the survivor re-queued
        # it at attempt 2 under its own name and reports that cell done.
        assert counts.get("fleet.cell_adopted") == 1
        assert counts.get("fleet.cell_done") == 1
        assert counts.get("fleet.lease_expired") == 1
        _, listing = coordinator.call("GET", "/tasks")
        tasks = {t["id"]: t for t in listing["tasks"]}
        assert [tasks[key]["state"] for key in keys] == ["done", "done"]
        assert (tasks[keys[0]]["publisher"], tasks[keys[0]]["attempt"]) == (
            "deadparent", 1,
        )
        assert (tasks[keys[1]]["publisher"], tasks[keys[1]]["attempt"]) == (
            "survivor", 2,
        )
        coordinator.close()

    def test_silent_worker_expires_and_cell_is_retried(self, daemon):
        url, _ = daemon
        configs = _configs(1)
        zombie = SharedStoreBackend(url)
        zombie_claimed = threading.Event()

        def zombie_loop():
            # Claim the first task and never beat: the lease must lapse.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, payload = zombie.call(
                    "POST", "/tasks/claim", {"worker": "zombie"}
                )
                if payload.get("task"):
                    zombie_claimed.set()
                    return
                time.sleep(0.02)

        threading.Thread(target=zombie_loop, daemon=True).start()
        backend = _parent("retrier", lease_ttl=0.3, max_attempts=3)
        healthy_started = threading.Event()

        def start_healthy_when_zombie_has_the_lease():
            if zombie_claimed.wait(10.0):
                time.sleep(0.4)  # past the lease TTL
                _start_worker(url, "healthy")
                healthy_started.set()

        threading.Thread(
            target=start_healthy_when_zombie_has_the_lease, daemon=True
        ).start()
        summaries = run_configs(
            configs, store=SummaryStore.open(url), backend=backend
        )
        assert len(summaries) == 1
        assert healthy_started.is_set()
        assert backend.stats.leases_expired >= 1
        assert backend.stats.retries >= 1
        counts = backend._event_counts
        assert counts.get("fleet.lease_expired", 0) >= 1
        assert counts.get("fleet.cell_done") == 1
        zombie.close()

    def test_deterministic_failure_fails_fast_with_traceback(self, daemon):
        url, _ = daemon

        def boom_factory(n, rng=None, **_):
            raise RuntimeError("remote boom")

        REGISTRY.register("churn", "TEST-REMOTE-BOOM", boom_factory, replace=True)
        try:
            bad = SimulationConfig(
                model="TEST-REMOTE-BOOM", n=16, duration=900.0, warmup=300.0
            )
            good = _configs(1)[0]
            _start_worker(url, "w0")
            backend = _parent("failer")
            with pytest.raises(SweepError) as excinfo:
                run_configs(
                    [good, bad], store=SummaryStore.open(url), backend=backend
                )
            failures = excinfo.value.failures
            assert len(failures) == 1
            assert failures[0].index == 1
            assert "remote boom" in failures[0].traceback
            assert backend.stats.retries == 0  # deterministic: no retry
        finally:
            REGISTRY.unregister("churn", "TEST-REMOTE-BOOM")

    def test_cell_done_events_carry_store_keys(self, daemon):
        from repro.obs.journal import Journal

        url, root = daemon
        _start_worker(url, "w0")
        backend = _parent("journaled")
        journal_path = root.parent / "remote-journal.jsonl"
        journal = Journal(journal_path)
        backend.attach_obs(None, journal)
        run_configs(
            _configs(2), store=SummaryStore.open(url), backend=backend
        )
        journal.close()
        events = [
            line for line in journal_path.read_text().splitlines() if line
        ]
        import json as json_module

        done = [
            json_module.loads(line)
            for line in events
            if json_module.loads(line).get("event") == "fleet.cell_done"
        ]
        assert len(done) == 2
        keys = [event["key"] for event in done]
        assert len(set(keys)) == 2
        assert all(key.endswith(".json") for key in keys)


class _RestartableDaemon:
    """The store daemon as a stop/start-able object on one pinned port.

    The task board and its event log are in-memory by design — a restart
    wipes them while the filesystem-backed summaries survive.  That
    asymmetry is exactly what the restart test exercises.
    """

    def __init__(self, root) -> None:
        self.root = root
        self.port = 0
        self._live = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> str:
        self._live = StoreDaemonThread(
            FilesystemBackend(self.root), port=self.port
        ).start()
        self.port = self._live.port
        return self.url

    def stop(self) -> None:
        self._live.stop()

    @property
    def service(self):
        return self._live.service


@pytest.mark.udp
class TestDaemonRestartMidSweep:
    def test_parent_reclaims_and_republishes_after_restart(self, tmp_path):
        """The daemon dies mid-sweep and comes back empty (the board is
        soft state); the parent's next drain sees a new board epoch and
        republishes every outstanding cell — the sweep completes with
        byte-identical summaries and exactly-once compute."""
        daemon = _RestartableDaemon(tmp_path)
        url = daemon.start()
        configs = _configs(2)
        # Generous transport retries: the parent must ride out the
        # restart window instead of failing the sweep on one refused
        # connection.
        store = SummaryStore(
            backend=SharedStoreBackend(url, retries=20, retry_backoff=0.1)
        )
        backend = _parent("phoenix")
        results = {}

        def sweep():
            results["summaries"] = run_configs(
                configs, store=store, backend=backend
            )

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        # Mid-sweep = tasks queued, nothing computed yet (no worker is
        # attached).
        probe = SharedStoreBackend(url)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            _, listing = probe.call("GET", "/tasks")
            if len(listing.get("tasks", ())) >= len(configs):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("parent never published its tasks")
        probe.close()
        daemon.stop()
        time.sleep(0.3)  # a real outage window, parent mid-loop
        assert daemon.start() == url  # same port: parents reconnect blind
        _start_worker(url, "w-after-restart")
        sweeper.join(timeout=60.0)
        assert not sweeper.is_alive(), "sweep never completed after restart"
        # Byte-identity survived the restart...
        baseline = [s.to_json() for s in run_configs(configs)]
        assert [s.to_json() for s in results["summaries"]] == baseline
        # ...the parent republished every cell to the fresh daemon, once...
        published = daemon.service.registry.deterministic_snapshot()
        assert published["store.tasks_published"] == len(configs)
        daemon.stop()
        # ...and every cell was computed exactly once, post-restart.
        counts = backend._event_counts
        assert counts.get("fleet.cell_done") == len(configs)
        assert counts.get("fleet.cell_adopted", 0) == 0


@pytest.mark.udp
def test_idle_worker_exits_while_its_daemon_is_unreachable():
    """``--max-idle`` keeps counting while the daemon is down: a worker
    attached to a closed port gives up instead of polling forever."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    completed = []
    worker = threading.Thread(
        target=lambda: completed.append(
            _worker_loop(
                f"http://127.0.0.1:{port}", "w-orphan", 0.05, 0.3, None, io.StringIO()
            )
        ),
        daemon=True,
    )
    started = time.monotonic()
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "worker kept polling an unreachable daemon"
    assert time.monotonic() - started < 2.5
    assert completed == [0]
