"""Store-backend tests: the object protocol, the daemon, the HTTP client.

Three layers, tested progressively: :class:`FilesystemBackend` semantics
in isolation, :class:`StoreService` through the in-memory HTTP client
(socket-free), and :class:`SharedStoreBackend` against a real asyncio
server (marked ``udp`` with the other socket-opening tests).  The
invariant threading through all of them: object text round-trips
byte-exactly, so the summary-JSON byte-identity contract survives the
wire.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

import pytest

from repro.experiments.store import SummaryStore
from repro.experiments.store_backends import (
    FilesystemBackend,
    SharedStoreBackend,
    StoreBackend,
    backend_from_spec,
    is_url_spec,
    valid_object_name,
)
from repro.experiments.store_server import StoreDaemonThread, StoreService
from repro.serve.http import MemoryHttpClient

WEIRD_TEXT = '{"label": "\\u00e9tude \\n tab\\t", "n": 1}\n'


class TestObjectNames:
    def test_valid_names(self):
        assert valid_object_name("abc123.json")
        assert valid_object_name("A-b_c.9")

    @pytest.mark.parametrize(
        "name",
        ["", "../etc/passwd", "a/b.json", ".hidden", "-flag", "a b", "a\nb"],
    )
    def test_invalid_names(self, name):
        assert not valid_object_name(name)

    def test_put_rejects_illegal_name(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("../escape.json", "{}")
        with pytest.raises(ValueError):
            backend.get("a/b.json")


class TestFilesystemBackend:
    def test_round_trip_and_listing(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        assert backend.get("x.json") is None
        assert not backend.exists("x.json")
        backend.put("b.json", WEIRD_TEXT)
        backend.put("a.json", "{}")
        assert backend.get("b.json") == WEIRD_TEXT
        assert (tmp_path / "b.json").read_text(encoding="utf-8") == WEIRD_TEXT
        names = [entry.name for entry in backend.entries()]
        assert names == ["a.json", "b.json"]  # sorted, deterministic
        assert backend.entries()[1].size == len(WEIRD_TEXT.encode("utf-8"))

    def test_delete_and_clear(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("a.json", "{}")
        backend.put("b.json", "{}")
        assert backend.delete("a.json")
        assert not backend.delete("a.json")  # already gone
        assert backend.clear() == 1
        assert backend.entries() == ()

    def test_stat_and_spec(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.put("a.json", "12345")
        stat = backend.stat()
        assert stat["entries"] == 1
        assert stat["total_bytes"] == 5
        reopened = backend_from_spec(backend.spec())
        assert isinstance(reopened, FilesystemBackend)
        assert reopened.get("a.json") == "12345"


class TestSpecs:
    def test_url_specs(self):
        assert is_url_spec("http://127.0.0.1:7780")
        assert is_url_spec("https://cache.example")
        assert not is_url_spec("/tmp/cache")
        assert not is_url_spec("relative/dir")

    def test_backend_from_spec_dispatch(self, tmp_path):
        assert isinstance(backend_from_spec(tmp_path), FilesystemBackend)
        assert isinstance(
            backend_from_spec("http://127.0.0.1:1"), SharedStoreBackend
        )

    def test_https_rejected_loudly(self):
        # TLS is out of scope; the error must name the problem rather than
        # silently treating the spec as a directory.
        with pytest.raises(ValueError):
            backend_from_spec("https://cache.example")

    def test_summary_store_spec_round_trip(self, tmp_path):
        store = SummaryStore(tmp_path)
        reopened = SummaryStore.open(store.spec())
        assert str(reopened.root) == str(store.root)


class MemoryStore:
    """Sync driver over :class:`MemoryHttpClient` for one StoreService."""

    def __init__(self, backend: StoreBackend, **service_kwargs) -> None:
        self.service = StoreService(backend, **service_kwargs)
        self.client = MemoryHttpClient(self.service)

    def call(self, method: str, target: str, body=None, headers=None):
        status, payload, _ = asyncio.run(
            self.client.request(method, target, body=body, headers=headers)
        )
        return status, payload


def memory_client(tmp_path) -> MemoryStore:
    return MemoryStore(FilesystemBackend(tmp_path))


class TestStoreServiceInMemory:
    """The daemon's request handler, driven socket-free."""

    def test_healthz(self, tmp_path):
        status, payload = memory_client(tmp_path).call("GET", "/healthz")
        assert (status, payload["status"]) == (200, "ok")

    def test_put_get_byte_exact(self, tmp_path):
        client = memory_client(tmp_path)
        status, payload = client.call(
            "PUT", "/objects/k.json", {"text": WEIRD_TEXT}
        )
        assert status == 200
        assert payload["bytes"] == len(WEIRD_TEXT)
        status, payload = client.call("GET", "/objects/k.json")
        assert status == 200
        assert payload["text"] == WEIRD_TEXT  # byte-identical round trip

    def test_miss_is_404(self, tmp_path):
        status, payload = memory_client(tmp_path).call(
            "GET", "/objects/missing.json"
        )
        assert status == 404
        assert "missing.json" in payload["error"]

    def test_illegal_name_is_400(self, tmp_path):
        client = memory_client(tmp_path)
        status, _ = client.call("GET", "/objects/..%2Fescape")
        assert status in (400, 404)  # rejected either way, never served
        status, _ = client.call("GET", "/objects/.hidden")
        assert status == 400

    def test_bad_put_body_is_400(self, tmp_path):
        client = memory_client(tmp_path)
        status, _ = client.call("PUT", "/objects/k.json", {"nope": 1})
        assert status == 400
        status, _ = client.call("PUT", "/objects/k.json", {"text": 42})
        assert status == 400

    def test_listing_and_stat(self, tmp_path):
        client = memory_client(tmp_path)
        client.call("PUT", "/objects/b.json", {"text": "22"})
        client.call("PUT", "/objects/a.json", {"text": "1"})
        status, payload = client.call("GET", "/objects")
        assert status == 200
        assert [e["name"] for e in payload["entries"]] == ["a.json", "b.json"]
        status, payload = client.call("GET", "/stat")
        assert status == 200
        assert payload["entries"] == 2
        assert payload["total_bytes"] == 3
        assert payload["counters"]["puts"] == 2

    def test_delete(self, tmp_path):
        client = memory_client(tmp_path)
        client.call("PUT", "/objects/a.json", {"text": "1"})
        status, payload = client.call("DELETE", "/objects/a.json")
        assert (status, payload["deleted"]) == (200, True)
        status, _ = client.call("DELETE", "/objects/a.json")
        assert status == 404

    def test_method_and_route_errors(self, tmp_path):
        client = memory_client(tmp_path)
        status, _ = client.call("POST", "/objects", {"x": 1})
        assert status == 405
        status, _ = client.call("PATCH", "/objects/a.json", {"x": 1})
        assert status == 405
        status, _ = client.call("GET", "/nope")
        assert status == 404

    def test_backend_failure_is_500(self, tmp_path):
        class Broken(FilesystemBackend):
            def get(self, name):
                raise OSError("disk on fire")

        client = MemoryStore(Broken(tmp_path))
        status, payload = client.call("GET", "/objects/a.json")
        assert status == 500
        assert "disk on fire" in payload["error"]


class TestRetrySchedule:
    """Regression: the retry backoff starts at ``backoff``, never sleeps
    before attempt 0, and doubles exactly — the first retry used to be
    ambiguous between 0.5x and 1x the configured backoff."""

    def _sleeps_for(self, monkeypatch, retries, backoff):
        import repro.experiments.store_backends as module

        # time.sleep is process-wide: record only this thread's sleeps, so
        # fleet-worker threads that earlier tests left polling cannot leak
        # theirs into the schedule.
        slept = []
        caller = threading.get_ident()
        real_sleep = module.time.sleep

        def sleep(seconds):
            if threading.get_ident() == caller:
                slept.append(seconds)
            else:
                real_sleep(seconds)

        monkeypatch.setattr(module.time, "sleep", sleep)
        backend = SharedStoreBackend(
            "http://127.0.0.1:1", retries=retries, retry_backoff=backoff
        )
        with pytest.raises(OSError):
            backend.get("k.json")
        backend.close()
        return slept

    def test_backoff_schedule_is_pinned(self, monkeypatch):
        slept = self._sleeps_for(monkeypatch, retries=3, backoff=0.2)
        assert slept == [0.2, 0.4, 0.8]

    def test_attempt_zero_never_sleeps(self, monkeypatch):
        assert self._sleeps_for(monkeypatch, retries=0, backoff=0.2) == []


class TestCompaction:
    def test_filesystem_compact_removes_stale_tmp_and_corrupt(self, tmp_path):
        import os
        import time as time_module

        backend = FilesystemBackend(tmp_path)
        backend.put("good.json", WEIRD_TEXT)
        (tmp_path / "bad.json").write_text("{truncated", encoding="utf-8")
        old_tmp = tmp_path / "dead.json.tmp123.0"
        old_tmp.write_text("partial", encoding="utf-8")
        stale = time_module.time() - 3600.0
        os.utime(old_tmp, (stale, stale))
        fresh_tmp = tmp_path / "live.json.tmp456.1"
        fresh_tmp.write_text("in flight", encoding="utf-8")
        result = backend.compact(tmp_age=60.0)
        assert result == {"removed_tmp": 1, "removed_corrupt": 1}
        assert backend.get("good.json") == WEIRD_TEXT  # untouched
        assert not old_tmp.exists()
        assert fresh_tmp.exists()  # younger than tmp_age: maybe mid-write

    def test_compact_over_the_wire(self, tmp_path):
        import os
        import time as time_module

        client = memory_client(tmp_path)
        client.call("PUT", "/objects/good.json", {"text": "{}"})
        (tmp_path / "junk.json").write_text("not json", encoding="utf-8")
        old_tmp = tmp_path / "x.json.tmp9.9"
        old_tmp.write_text("x", encoding="utf-8")
        stale = time_module.time() - 3600.0
        os.utime(old_tmp, (stale, stale))
        status, payload = client.call("POST", "/compact", {"tmp_age": 60.0})
        assert status == 200
        assert payload == {"removed_tmp": 1, "removed_corrupt": 1}
        # The daemon's directory view is invalidated, not stale.
        status, payload = client.call("GET", "/objects")
        assert [e["name"] for e in payload["entries"]] == ["good.json"]
        status, _ = client.call("GET", "/compact")
        assert status == 405


class TestAuthToken:
    def test_mutations_need_the_bearer_token(self, tmp_path):
        client = MemoryStore(FilesystemBackend(tmp_path), auth_token="s3cret")
        status, _ = client.call("PUT", "/objects/k.json", {"text": "1"})
        assert status == 401
        status, _ = client.call(
            "PUT",
            "/objects/k.json",
            {"text": "1"},
            headers={"Authorization": "Bearer wrong"},
        )
        assert status == 401
        status, _ = client.call(
            "PUT",
            "/objects/k.json",
            {"text": "1"},
            headers={"Authorization": "Bearer s3cret"},
        )
        assert status == 200
        status, _ = client.call("DELETE", "/objects/k.json")
        assert status == 401
        status, _ = client.call("POST", "/compact")
        assert status == 401
        status, _ = client.call(
            "POST", "/tasks/claim", {"worker": "w"}
        )
        assert status == 401

    def test_reads_stay_open(self, tmp_path):
        client = MemoryStore(FilesystemBackend(tmp_path), auth_token="s3cret")
        assert client.call("GET", "/healthz")[0] == 200
        assert client.call("GET", "/objects")[0] == 200
        assert client.call("GET", "/metrics")[0] == 200
        assert client.call("GET", "/stat")[0] == 200
        snapshot = client.service.registry.deterministic_snapshot()
        assert snapshot["store.auth_rejects"] == 0

    def test_rejects_are_counted(self, tmp_path):
        client = MemoryStore(FilesystemBackend(tmp_path), auth_token="s3cret")
        client.call("PUT", "/objects/k.json", {"text": "1"})
        snapshot = client.service.registry.deterministic_snapshot()
        assert snapshot["store.auth_rejects"] == 1

    def test_shared_backend_sends_env_token(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AVMON_STORE_TOKEN", "s3cret")
        backend = SharedStoreBackend("http://127.0.0.1:1")
        assert backend.auth_token == "s3cret"
        backend.close()


class _CountingBackend(FilesystemBackend):
    """Counts directory scans so gauge behaviour is observable."""

    def __init__(self, root):
        super().__init__(root)
        self.entry_scans = 0

    def entries(self):
        self.entry_scans += 1
        return super().entries()


class TestGaugeSingleScan:
    """Regression: ``store.objects`` and ``store.object_bytes`` used to
    each call ``backend.entries()``, so one metrics scrape cost two
    directory scans and the two gauges could disagree mid-PUT."""

    def test_one_scrape_scans_once_and_gauges_agree(self, tmp_path):
        backend = _CountingBackend(tmp_path)
        client = MemoryStore(backend)
        client.call("PUT", "/objects/a.json", {"text": "123"})
        client.call("PUT", "/objects/b.json", {"text": "4567"})
        backend.entry_scans = 0
        status, payload = client.call("GET", "/metrics")
        assert status == 200
        assert backend.entry_scans == 1  # one scan feeds both gauges
        metrics = payload["deterministic"]
        assert metrics["store.objects"] == 2
        assert metrics["store.object_bytes"] == 7

    def test_mutations_invalidate_the_cached_scan(self, tmp_path):
        backend = _CountingBackend(tmp_path)
        client = MemoryStore(backend)
        client.call("PUT", "/objects/a.json", {"text": "123"})
        _, payload = client.call("GET", "/metrics")
        assert payload["deterministic"]["store.objects"] == 1
        client.call("DELETE", "/objects/a.json")
        _, payload = client.call("GET", "/metrics")
        assert payload["deterministic"]["store.objects"] == 0


class _FailingBackend(StoreBackend):
    """Every operation raises: the store layer must degrade, not crash."""

    def get(self, name):
        raise OSError("get down")

    def put(self, name, text):
        raise OSError("put down")

    def delete(self, name):
        raise OSError("delete down")

    def entries(self):
        raise OSError("list down")

    def spec(self):
        return "failing://"


class TestStoreDegradation:
    def test_unreachable_backend_is_a_miss_not_a_crash(self, recwarn):
        store = SummaryStore(backend=_FailingBackend())
        assert store.load(("k",)) is None
        assert store.misses == 1
        assert any("unreadable" in str(w.message) for w in recwarn.list)

    def test_failed_write_warns_and_continues(self, recwarn):
        from repro.experiments.summary import SimulationSummary

        store = SummaryStore(backend=_FailingBackend())
        summary = SimulationSummary(
            model="STAT",
            n=8,
            seed=1,
            label="STAT",
            params={},
            avmon={},
            monitor_delays={},
            control_count=0,
            memory_control=[],
            bandwidth=[],
        )
        assert store.save(("k",), summary) is None
        assert store.writes == 0
        assert any("failed to persist" in str(w.message) for w in recwarn.list)


@pytest.fixture()
def live_store_server(tmp_path):
    """A real asyncio store daemon on an ephemeral localhost port."""
    with StoreDaemonThread(FilesystemBackend(tmp_path)) as daemon:
        yield daemon.url, tmp_path


@pytest.mark.udp
class TestSharedStoreBackendLive:
    def test_round_trip_over_sockets(self, live_store_server):
        url, root = live_store_server
        backend = SharedStoreBackend(url)
        try:
            assert backend.get("k.json") is None
            backend.put("k.json", WEIRD_TEXT)
            assert backend.get("k.json") == WEIRD_TEXT
            assert (root / "k.json").read_text(encoding="utf-8") == WEIRD_TEXT
            assert [e.name for e in backend.entries()] == ["k.json"]
            stat = backend.stat()
            assert stat["entries"] == 1
            assert backend.delete("k.json")
            assert not backend.delete("k.json")
        finally:
            backend.close()

    def test_pickled_backend_reconnects(self, live_store_server):
        url, _ = live_store_server
        backend = SharedStoreBackend(url)
        backend.put("a.json", "1")  # forces a live connection first
        clone = pickle.loads(pickle.dumps(backend))
        try:
            assert clone.get("a.json") == "1"
        finally:
            backend.close()
            clone.close()

    def test_store_over_http_counts_like_disk(self, live_store_server):
        from repro.experiments.orchestrator import run_configs
        from repro.experiments.runner import SimulationConfig

        url, _ = live_store_server
        configs = [
            SimulationConfig(
                model="STAT", n=16, duration=900.0, warmup=300.0, seed=s
            )
            for s in (1, 2)
        ]
        cold = SummaryStore.open(url)
        baseline = [s.to_json() for s in run_configs(configs)]
        first = run_configs(configs, store=cold)
        assert [s.to_json() for s in first] == baseline
        assert (cold.hits, cold.writes) == (0, 2)
        warm = SummaryStore.open(url)
        second = run_configs(configs, store=warm)
        assert [s.to_json() for s in second] == baseline
        assert (warm.hits, warm.writes) == (2, 0)

    def test_unreachable_daemon_errors_cleanly(self):
        backend = SharedStoreBackend("http://127.0.0.1:1", retries=0)
        with pytest.raises(OSError):
            backend.get("k.json")
        backend.close()


def _hammer_worker(url: str, worker: int, rounds: int) -> int:
    """PUT a contended name and a private name over and over."""
    backend = SharedStoreBackend(url)
    try:
        for round_number in range(rounds):
            backend.put("contended.json", WEIRD_TEXT)
            backend.put(
                f"private-{worker}.json",
                f'{{"worker": {worker}, "round": {round_number}}}',
            )
        return rounds
    finally:
        backend.close()


@pytest.mark.udp
class TestConcurrentPutSafety:
    """N processes hammering one daemon: byte-exact reads, no torn files,
    no 5xx — the single-writer rename discipline under real contention."""

    def test_hammer_same_and_distinct_names(self, live_store_server):
        import json as json_module
        import multiprocessing

        url, root = live_store_server
        workers, rounds = 4, 25
        ctx = multiprocessing.get_context()
        with ctx.Pool(workers) as pool:
            results = pool.starmap(
                _hammer_worker,
                [(url, worker, rounds) for worker in range(workers)],
            )
        assert results == [rounds] * workers
        probe = SharedStoreBackend(url)
        try:
            # The contended object is byte-exact — never a torn mix.
            assert probe.get("contended.json") == WEIRD_TEXT
            # Every private object holds its own writer's final round.
            for worker in range(workers):
                text = probe.get(f"private-{worker}.json")
                parsed = json_module.loads(text)
                assert parsed == {"worker": worker, "round": rounds - 1}
            stat = probe.stat()
            assert stat["counters"]["server_errors"] == 0
            assert stat["counters"]["puts"] == workers * rounds * 2
        finally:
            probe.close()
        # No scratch files leaked, and everything on disk parses.
        leftovers = [p.name for p in root.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        for path in root.iterdir():
            json_module.loads(path.read_text(encoding="utf-8"))
