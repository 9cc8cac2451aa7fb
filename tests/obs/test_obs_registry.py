"""Unit tests for the repro.obs metrics registry."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DETERMINISTIC,
    WALL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.snapshot_value() == 6

    def test_default_kind_is_deterministic(self):
        assert Counter("c").kind == DETERMINISTIC


class TestGauge:
    def test_set_value(self):
        gauge = Gauge("g")
        gauge.set(42)
        assert gauge.value == 42

    def test_callback_reads_live_state(self):
        state = {"n": 0}
        gauge = Gauge("g", fn=lambda: state["n"])
        state["n"] = 7
        assert gauge.value == 7
        state["n"] = 9
        assert gauge.snapshot_value() == 9

    def test_set_clears_callback(self):
        gauge = Gauge("g", fn=lambda: 1)
        gauge.set(5)
        assert gauge.value == 5


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        hist = Histogram("h", window=100)
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").percentile(95) == 0.0

    def test_window_bounds_memory_but_not_count(self):
        hist = Histogram("h", window=4)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        assert len(hist._samples) == 4

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)

    def test_snapshot_shape(self):
        hist = Histogram("h")
        hist.observe(1.0)
        snap = hist.snapshot_value()
        assert set(snap) == {"count", "total", "mean", "p50", "p95", "p99"}


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a", DETERMINISTIC)
        with pytest.raises(ValueError):
            registry.counter("a", WALL)

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_unknown_kind_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a", "bogus")

    def test_deterministic_snapshot_excludes_wall(self):
        registry = MetricsRegistry()
        registry.counter("det").inc(3)
        registry.counter("timing", kind=WALL).inc(9)
        registry.histogram("lat", kind=WALL).observe(0.5)
        det = registry.deterministic_snapshot()
        assert det == {"det": 3}
        wall = registry.wall_snapshot()
        assert set(wall) == {"timing", "lat"}

    def test_deterministic_json_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.histogram("noise", kind=WALL).observe(1.23)
        text = registry.deterministic_json()
        assert text == '{"a":2,"b":1}'
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_to_dict_splits_kinds(self):
        registry = MetricsRegistry()
        registry.counter("d").inc()
        registry.counter("w", kind=WALL).inc()
        payload = registry.to_dict()
        assert payload["deterministic"] == {"d": 1}
        assert payload["wall"] == {"w": 1}

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert registry.names() == ["a", "z"]

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestPrometheus:
    def test_render_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("store.puts").inc(4)
        registry.gauge("store.objects", fn=lambda: 11)
        hist = registry.histogram("serve.latency_seconds", kind=WALL)
        hist.observe(0.25)
        text = registry.render_prometheus()
        assert "# TYPE avmon_store_puts counter" in text
        assert 'avmon_store_puts{kind="deterministic"} 4' in text
        assert 'avmon_store_objects{kind="deterministic"} 11' in text
        assert "# TYPE avmon_serve_latency_seconds summary" in text
        assert 'quantile="0.95"' in text
        assert "avmon_serve_latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_name_sanitisation(self):
        registry = MetricsRegistry()
        registry.counter("fleet.worker-spawned/total").inc()
        text = registry.render_prometheus()
        assert "avmon_fleet_worker_spawned_total" in text
