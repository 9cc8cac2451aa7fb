"""Unit tests for the disk-backed summary store and the key contract."""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.cache import SimulationCache
from repro.experiments.scenarios import scenario
from repro.experiments.store import (
    SummaryStore,
    config_key,
    latency_key,
    stable_key_hash,
    store_filename,
)
from repro.experiments.summary import SimulationSummary
from repro.net.latency import ConstantLatency, LogNormalLatency, UniformLatency


def _summary(**overrides) -> SimulationSummary:
    base = dict(
        model="STAT",
        n=30,
        seed=4,
        label="STAT",
        params={"duration": 2100.0, "warmup": 600.0},
        avmon={"k": 4.0, "cvs": 10.0},
        monitor_delays={1: [4.25, 9.5], 2: [30.0]},
        control_count=3,
        memory_control=[17.5, 18.25],
        bandwidth=[1.5, 2.25],
    )
    base.update(overrides)
    return SimulationSummary(**base)


class TestLatencyKey:
    def test_none_is_none(self):
        assert latency_key(None) is None

    def test_keys_on_public_attributes(self):
        key = latency_key(UniformLatency(0.02, 0.1))
        assert key == ("UniformLatency", (("high", 0.1), ("low", 0.02)))

    def test_private_memoisation_does_not_change_key(self):
        """Regression: a lazily-set ``_``-prefixed attribute used to flip
        the key of an otherwise identical model (cache miss on re-lookup)."""
        model = UniformLatency(0.02, 0.1)
        before = latency_key(model)
        model._memoised_span = model.high - model.low  # lazy private state
        assert latency_key(model) == before

    def test_slots_fallback_is_deterministic_and_loud(self):
        class SlottedLatency:
            __slots__ = ("delay",)

            def __init__(self, delay):
                self.delay = delay

        with pytest.warns(RuntimeWarning, match="no __dict__"):
            key_a = latency_key(SlottedLatency(0.05))
        with pytest.warns(RuntimeWarning):
            key_b = latency_key(SlottedLatency(0.99))
        # Deterministic type-name key (no object addresses), shared across
        # parameterisations — which is exactly what the warning flags.
        assert key_a == key_b == ("SlottedLatency",)

    def test_distinct_parameterisations_distinct_keys(self):
        assert latency_key(ConstantLatency(0.05)) != latency_key(ConstantLatency(0.06))


class TestStableKeyHash:
    def test_deterministic_within_process(self):
        key = config_key(scenario("STAT", 30, "test", seed=4))
        assert stable_key_hash(key) == stable_key_hash(key)

    def test_distinguishes_bool_int_and_float(self):
        assert stable_key_hash((True,)) != stable_key_hash((1,))
        assert stable_key_hash((1,)) != stable_key_hash((1.0,))

    def test_rejects_unserialisable_values(self):
        with pytest.raises(TypeError):
            stable_key_hash((object(),))

    def test_filenames_stable_across_processes(self):
        """The acceptance contract: a fresh interpreter (different hash
        seed) derives identical store filenames for every registered
        latency model."""
        code = (
            "import json\n"
            "from repro.experiments.store import store_filename\n"
            "from repro.experiments.scenarios import scenario\n"
            "from repro.net.latency import (ConstantLatency, UniformLatency,"
            " LogNormalLatency)\n"
            "models = [None, ConstantLatency(0.05), UniformLatency(0.02, 0.1),"
            " LogNormalLatency(0.06, 0.5, 1.0)]\n"
            "print(json.dumps([store_filename(scenario('STAT', 30, 'test',"
            " latency=m)) for m in models]))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env["PYTHONHASHSEED"] = "random"
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        models = [
            None,
            ConstantLatency(0.05),
            UniformLatency(0.02, 0.1),
            LogNormalLatency(0.06, 0.5, 1.0),
        ]
        parent = [
            store_filename(scenario("STAT", 30, "test", latency=m)) for m in models
        ]
        assert json.loads(child.stdout) == parent
        assert len(set(parent)) == len(parent)  # distinct models, distinct files


class TestSummaryStore:
    def test_round_trip(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        key = ("STAT", 30, 4)
        summary = _summary()
        store.save(key, summary)
        loaded = store.load(key)
        assert loaded == summary
        assert loaded.to_json() == summary.to_json()
        assert store.hits == 1 and store.writes == 1

    def test_missing_is_a_miss(self, tmp_path):
        store = SummaryStore(tmp_path)
        assert store.load(("absent",)) is None
        assert store.misses == 1

    def test_truncated_file_recomputes_not_crashes(self, tmp_path):
        store = SummaryStore(tmp_path)
        key = ("STAT", 30, 4)
        store.save(key, _summary())
        path = store.path_for(key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(key) is None
        # save() overwrites the damaged file and lookups recover
        store.save(key, _summary())
        assert store.load(key) == _summary()

    def test_garbage_json_is_a_warned_miss(self, tmp_path):
        store = SummaryStore(tmp_path)
        key = ("K",)
        store.path_for(key).write_text('{"monitor_delays": {"first": []}}')
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(key) is None

    def test_incompatible_schema_is_a_warned_miss(self, tmp_path):
        """A file stamped with a future schema (renamed/reinterpreted
        fields) must be recomputed, not loaded as a default-valued
        summary."""
        store = SummaryStore(tmp_path)
        key = ("K",)
        payload = json.loads(_summary().to_json())
        payload["schema"] = 99
        store.path_for(key).write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(key) is None

    def test_failed_write_warns_and_continues(self, tmp_path, monkeypatch):
        """The store is best-effort on the write side: a full disk must
        not abort a sweep that already holds the computed summary."""
        store = SummaryStore(tmp_path)

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.experiments.store.os.replace", no_space)
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            assert store.save(("K",), _summary()) is None
        assert store.writes == 0
        assert len(store) == 0  # no temp debris counted as an entry

    def test_contains_len_clear(self, tmp_path):
        store = SummaryStore(tmp_path)
        key_a, key_b = ("a",), ("b",)
        assert key_a not in store and len(store) == 0
        store.save(key_a, _summary())
        store.save(key_b, _summary(seed=5))
        assert key_a in store and key_b in store and len(store) == 2
        store.clear()
        assert len(store) == 0 and key_a not in store

    def test_content_addressing_matches_cache_key(self, tmp_path):
        store = SummaryStore(tmp_path)
        config = scenario("STAT", 30, "test", seed=4)
        assert store.path_for(config_key(config)).name == store_filename(config)


class TestCacheWithStore:
    def test_second_process_equivalent_resumes_without_simulating(
        self, tmp_path, monkeypatch
    ):
        config = scenario("STAT", 30, "test", seed=4)
        first = SimulationCache(store=SummaryStore(tmp_path))
        summary = first.get_summary(config)

        def refuse(_config):
            raise AssertionError("resumed lookup must not simulate")

        monkeypatch.setattr("repro.experiments.cache.run_simulation", refuse)
        monkeypatch.setattr("repro.experiments.backends.base.run_simulation", refuse)
        second = SimulationCache(store=SummaryStore(tmp_path))
        resumed = second.get_summary(config)
        assert resumed.to_json() == summary.to_json()

    def test_prime_counts_only_simulated_cells(self, tmp_path, monkeypatch):
        configs = [scenario("STAT", 30, "test", seed=s) for s in (1, 2)]
        warm = SimulationCache(store=SummaryStore(tmp_path))
        assert warm.prime(configs[:1]) == 1

        cold = SimulationCache(store=SummaryStore(tmp_path))
        assert cold.prime(configs) == 1  # seed=1 resumed from disk
        assert cold.summary_count() == 2

        monkeypatch.setattr(
            "repro.experiments.backends.base.run_simulation",
            lambda _config: pytest.fail("fully-cached prime must not simulate"),
        )
        done = SimulationCache(store=SummaryStore(tmp_path))
        assert done.prime(configs) == 0

    def test_prime_never_pins_full_results(self):
        cache = SimulationCache()
        configs = [scenario("STAT", 30, "test", seed=s) for s in (1, 2)]
        cache.prime(configs, jobs=1)
        assert cache.summary_count() == 2
