"""Unit tests for the simulation-result cache."""

from repro.experiments.cache import SimulationCache, default_cache
from repro.experiments.scenarios import scenario
from repro.experiments.store import config_key
from repro.traces.planetlab import generate_planetlab_trace


class TestSimulationCache:
    def test_memoises_identical_configs(self):
        cache = SimulationCache()
        config_a = scenario("STAT", 30, "test", seed=4)
        config_b = scenario("STAT", 30, "test", seed=4)
        first = cache.get_summary(config_a)
        second = cache.get_summary(config_b)
        assert first is second
        assert cache.summary_count() == 1

    def test_distinct_seed_distinct_run(self):
        cache = SimulationCache()
        first = cache.get_summary(scenario("STAT", 30, "test", seed=1))
        second = cache.get_summary(scenario("STAT", 30, "test", seed=2))
        assert first is not second
        assert cache.summary_count() == 2

    def test_avmon_overrides_change_key(self):
        config_a = scenario("STAT", 30, "test", seed=1)
        config_b = scenario("STAT", 30, "test", seed=1)
        config_b.avmon = config_b.resolved_avmon().with_overrides(enable_pr2=True)
        assert config_key(config_a) != config_key(config_b)

    def test_clear(self):
        cache = SimulationCache()
        cache.get_summary(scenario("STAT", 30, "test", seed=1))
        cache.clear()
        assert cache.summary_count() == 0

    def test_default_cache_is_singleton(self):
        assert default_cache() is default_cache()

    def test_trace_key_distinguishes_trace_seeds(self):
        """Regression: traces from different seeds share (len, duration,
        born_before) but must not share a cache key."""
        duration = 1500.0
        trace_a = generate_planetlab_trace(n=10, duration=duration, seed=1)
        trace_b = generate_planetlab_trace(n=10, duration=duration, seed=2)
        assert len(trace_a) == len(trace_b)  # the old fingerprint collided
        config_a = scenario("PL", 10, "test", trace=trace_a)
        config_b = scenario("PL", 10, "test", trace=trace_b)
        assert config_key(config_a) != config_key(config_b)

    def test_trace_key_stable_for_identical_content(self):
        duration = 1500.0
        trace_a = generate_planetlab_trace(n=10, duration=duration, seed=3)
        trace_b = generate_planetlab_trace(n=10, duration=duration, seed=3)
        config_a = scenario("PL", 10, "test", trace=trace_a)
        config_b = scenario("PL", 10, "test", trace=trace_b)
        assert config_key(config_a) == config_key(config_b)

    def test_summary_memoised(self):
        cache = SimulationCache()
        config = scenario("STAT", 30, "test", seed=4)
        first = cache.get_summary(config)
        second = cache.get_summary(config)
        assert first is second
        assert cache.summary_count() == 1

    def test_prime_runs_each_config_once(self):
        cache = SimulationCache()
        configs = [scenario("STAT", 30, "test", seed=s) for s in (1, 2)]
        assert cache.prime(configs) == 2
        assert cache.prime(configs) == 0
        assert cache.summary_count() == 2

    def test_prime_parallel_matches_serial(self):
        serial = SimulationCache()
        parallel = SimulationCache()
        configs = [scenario("STAT", 30, "test", seed=s) for s in (1, 2)]
        serial.prime(configs, jobs=1)
        parallel.prime(configs, jobs=2)
        for config in configs:
            assert (
                serial.get_summary(config).to_json()
                == parallel.get_summary(config).to_json()
            )
