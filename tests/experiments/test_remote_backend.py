"""Remote fleet end-to-end: parents and workers meeting at one daemon.

Everything here runs against a real asyncio store daemon on a localhost
socket (marked ``udp`` with the other socket-opening tests); workers run
as threads so deterministic-failure scenarios can inject registry
components into their process.  The guarantees under test:

* a remote sweep's summaries are byte-identical to serial;
* two parents sweeping one grid through one daemon split the cells —
  ``fleet.cell_done`` keys never collide across their journals;
* a parent that dies (stops renewing claims) is taken over by the
  survivor, which completes the whole grid;
* a worker that goes silent expires its lease and the parent retries
  per the shared RetryPolicy schedule, while a worker raising
  deterministically fails the cell immediately with no retry.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.experiments.backends import RemoteWorkerBackend, run_fleet_worker
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
    params = dict(
        lease_ttl=5.0, poll_interval=0.05, adopt_interval=0.2, retry_backoff=0.05
    )
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
        # "deadparent" claims every cell with a short TTL and publishes
        # one task, then crashes (never renews, never drains events).
        coordinator = SharedStoreBackend(url)
        for key in keys:
            status, payload = coordinator.call(
                "POST",
                "/claims/claim",
                {"key": key, "owner": "deadparent", "ttl": 0.5},
            )
            assert payload["granted"] is True
        coordinator.call(
            "POST",
            "/tasks",
            {"id": "deadparent:0", "payload": "orphaned", "key": keys[0]},
        )
        _start_worker(url, "w0")
        time.sleep(0.6)  # let the claims lapse
        backend = _parent("survivor", adopt_interval=0.1)
        summaries = run_configs(configs, store=store, backend=backend)
        assert len(summaries) == 2
        counts = backend._event_counts
        # The survivor either won the claims outright (they had lapsed by
        # its first attempt) or took them over via the watch loop; either
        # way it computed both cells itself.
        assert counts.get("fleet.cell_done") == 2
        # The dead parent's orphaned task must not still be queued.
        _, listing = coordinator.call("GET", "/tasks")
        orphans = [
            t for t in listing["tasks"]
            if t["id"] == "deadparent:0" and t["state"] in ("queued", "leased")
        ]
        assert orphans == []
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

    The coordination state (claims, task board, event log) is in-memory
    by design — a restart wipes it while the filesystem-backed summaries
    survive.  That asymmetry is exactly what the restart test exercises.
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


@pytest.mark.udp
class TestDaemonRestartMidSweep:
    def test_parent_reclaims_and_republishes_after_restart(self, tmp_path):
        """ROADMAP item 2 leftover: the daemon dies mid-sweep and comes
        back empty (claims and queued tasks are soft state); the parent's
        renew fails, it demotes the cells to watched, the watcher's next
        claim is granted as a takeover and the tasks are republished —
        the sweep completes with byte-identical summaries and exactly-once
        compute."""
        daemon = _RestartableDaemon(tmp_path)
        url = daemon.start()
        configs = _configs(2)
        # Generous transport retries: the parent must ride out the
        # restart window instead of failing the sweep on one refused
        # connection.
        store = SummaryStore(
            backend=SharedStoreBackend(url, retries=20, retry_backoff=0.1)
        )
        # claim_ttl well above the pre-restart window (claims must be
        # lost to the restart, never to a natural lapse) but small enough
        # that the renew cadence (ttl/3) notices the loss promptly.
        backend = _parent("phoenix", claim_ttl=6.0, adopt_interval=0.1)
        results = {}

        def sweep():
            results["summaries"] = run_configs(
                configs, store=store, backend=backend
            )

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        # Mid-sweep = claims held and tasks queued, nothing computed yet
        # (no worker is attached).
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
        counts = backend._event_counts
        # ...the parent noticed its claims were gone (renew came back
        # empty against the fresh daemon)...
        assert counts.get("fleet.claim_lost", 0) >= len(configs)
        # ...re-claimed them as takeovers and republished...
        assert counts.get("fleet.claim_expired", 0) >= len(configs)
        # ...and every cell was computed exactly once, post-restart.
        assert counts.get("fleet.cell_done") == len(configs)
        assert counts.get("fleet.cell_adopted", 0) == 0
