"""Unit tests for the declarative Scenario facade."""

import json

import pytest

from repro.api import Scenario, expand_grid, run
from repro.experiments.scenarios import scale_window, scenario
from repro.experiments.store import config_key
from repro.net.latency import ConstantLatency
from repro.registry import UnknownComponentError


class TestScenarioSerialisation:
    def test_dict_round_trip(self):
        original = Scenario(
            model="SYNTH-BD",
            n=80,
            scale="test",
            seed=9,
            churn_per_hour=0.3,
            avmon={"enable_pr2": True},
        )
        assert Scenario.from_dict(original.to_dict()) == original

    def test_json_round_trip(self):
        original = Scenario(model="PL", scale="test", trace_seed=11)
        assert Scenario.from_json(original.to_json()) == original

    def test_json_is_plain_data(self):
        payload = json.loads(Scenario(model="SYNTH", n=50).to_json())
        assert payload["model"] == "SYNTH"
        assert payload["n"] == 50

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown Scenario fields"):
            Scenario.from_dict({"model": "STAT", "bogus_field": 1})

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            Scenario(scale="galactic")

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n must exceed 1"):
            Scenario(n=1)


class TestScenarioResolution:
    def test_unregistered_churn_model_raises_component_error(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            Scenario(model="NOT-A-MODEL").to_config()
        assert "SYNTH" in str(excinfo.value)  # alternatives listed

    def test_unregistered_latency_raises_component_error(self):
        with pytest.raises(UnknownComponentError):
            Scenario(model="STAT", latency="WARP").to_config()

    def test_matches_legacy_scenario_builder(self):
        """Scenario resolution lands on the same cache key as scenarios.py."""
        for model in ("STAT", "SYNTH", "SYNTH-BD"):
            legacy = scenario(model, 60, "test", seed=3)
            declarative = Scenario(model=model, n=60, scale="test", seed=3).to_config()
            assert config_key(legacy) == config_key(declarative)

    def test_scale_sets_window(self):
        config = Scenario(model="STAT", n=30, scale="test").to_config()
        warmup, window = scale_window("test")
        assert config.warmup == warmup
        assert config.duration == warmup + window

    def test_explicit_window_overrides_scale(self):
        config = Scenario(
            model="STAT", n=30, scale="test", warmup=200.0, duration=700.0
        ).to_config()
        assert config.warmup == 200.0
        assert config.duration == 700.0

    def test_avmon_overrides_apply(self):
        config = Scenario(
            model="STAT", n=30, scale="test", avmon={"k": 3, "enable_pr2": True}
        ).to_config()
        assert config.avmon.k == 3
        assert config.avmon.enable_pr2 is True

    def test_non_uniform_latency_plugs_in(self):
        config = Scenario(
            model="STAT",
            n=30,
            scale="test",
            latency="CONSTANT",
            latency_params={"delay": 0.04},
        ).to_config()
        assert isinstance(config.latency, ConstantLatency)
        assert config.latency.delay == 0.04

    def test_trace_scenario_generates_trace(self):
        config = Scenario(model="PL", scale="test", trace_seed=5).to_config()
        assert config.trace is not None
        assert config.n == len(config.trace)
        assert config.duration <= config.trace.duration

    def test_generic_trace_model_requires_generator(self):
        with pytest.raises(ValueError, match="trace_generator"):
            Scenario(model="TRACE", scale="test").to_config()

    def test_generic_trace_model_with_generator(self):
        config = Scenario(
            model="TRACE",
            scale="test",
            trace_generator="PL",
            trace_params={"n": 12},
        ).to_config()
        assert config.model_key == "TRACE"
        assert len(config.trace) == 12


class TestRunEntryPoint:
    def test_run_returns_summary(self):
        summary = run(
            Scenario(model="STAT", n=20, scale="test", warmup=300.0, duration=900.0)
        )
        assert summary.model == "STAT"
        assert summary.n == 20
        assert summary.tracked_count() > 0
        assert summary.first_monitor_delays()


class TestExpandGrid:
    def test_grid_times_seeds(self):
        cells = expand_grid(
            Scenario(model="STAT", scale="test"), {"n": [10, 20, 30]}, seeds=2
        )
        assert len(cells) == 6
        assert [c.n for c in cells] == [10, 10, 20, 20, 30, 30]
        assert [c.seed for c in cells] == [1, 2, 1, 2, 1, 2]

    def test_explicit_seed_sequence(self):
        cells = expand_grid(
            Scenario(model="STAT", scale="test"), {"n": [10]}, seeds=[7, 11]
        )
        assert [c.seed for c in cells] == [7, 11]

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameters"):
            expand_grid(Scenario(), {"warp_factor": [1, 2]})

    def test_seed_in_grid_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            expand_grid(Scenario(), {"seed": [1, 2]})

    def test_empty_grid_is_seed_replications(self):
        cells = expand_grid(Scenario(model="STAT"), seeds=3)
        assert len(cells) == 3
        assert [c.seed for c in cells] == [1, 2, 3]
