"""Unit tests for availability-history stores (sub-problem II)."""

import pytest

from repro.core.history import (
    AgedHistory,
    RawHistory,
    RecentWindowHistory,
    make_history,
)


class TestRawHistory:
    def test_empty(self):
        assert RawHistory().availability() == 0.0
        assert RawHistory().sample_count() == 0

    def test_fraction(self):
        history = RawHistory()
        for index in range(10):
            history.record(float(index), index % 2 == 0)
        assert history.availability() == pytest.approx(0.5)

    def test_samples_preserved(self):
        history = RawHistory()
        history.record(1.0, True)
        history.record(2.0, False)
        assert history.samples() == ((1.0, True), (2.0, False))


class TestRecentWindowHistory:
    def test_window_limits_memory(self):
        history = RecentWindowHistory(window=4)
        for t in range(100):
            history.record(float(t), False)
        assert history.sample_count() == 4

    def test_only_recent_counts(self):
        history = RecentWindowHistory(window=4)
        for t in range(10):
            history.record(float(t), False)
        for t in range(10, 14):
            history.record(float(t), True)
        assert history.availability() == 1.0

    def test_partial_window(self):
        history = RecentWindowHistory(window=10)
        history.record(0.0, True)
        history.record(1.0, False)
        assert history.availability() == pytest.approx(0.5)

    def test_eviction_updates_count(self):
        history = RecentWindowHistory(window=2)
        history.record(0.0, True)
        history.record(1.0, True)
        history.record(2.0, False)  # evicts an up sample
        assert history.availability() == pytest.approx(0.5)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RecentWindowHistory(window=0)


class TestAgedHistory:
    def test_first_sample_sets_estimate(self):
        history = AgedHistory(alpha=0.5)
        history.record(0.0, True)
        assert history.availability() == 1.0

    def test_exponential_decay(self):
        history = AgedHistory(alpha=0.5)
        history.record(0.0, True)
        history.record(1.0, False)
        assert history.availability() == pytest.approx(0.5)
        history.record(2.0, False)
        assert history.availability() == pytest.approx(0.25)

    def test_stays_in_unit_interval(self):
        history = AgedHistory(alpha=0.3)
        import random

        rng = random.Random(5)
        for t in range(200):
            history.record(float(t), rng.random() < 0.7)
            assert 0.0 <= history.availability() <= 1.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            AgedHistory(alpha=0.0)
        with pytest.raises(ValueError):
            AgedHistory(alpha=1.5)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_history("raw"), RawHistory)
        assert isinstance(make_history("recent", window=5), RecentWindowHistory)
        assert isinstance(make_history("aged", alpha=0.2), AgedHistory)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_history("median")
