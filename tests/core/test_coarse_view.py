"""Unit tests for the coarse view (Section 3.2's CV)."""

import random

import pytest

from repro.core.coarse_view import CoarseView


@pytest.fixture
def view():
    return CoarseView(owner=99, capacity=5)


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CoarseView(owner=1, capacity=0)

    def test_add_and_contains(self, view):
        assert view.add(1)
        assert 1 in view
        assert len(view) == 1

    def test_owner_rejected(self, view):
        assert not view.add(99)
        assert 99 not in view

    def test_duplicate_rejected(self, view):
        view.add(1)
        assert not view.add(1)
        assert len(view) == 1

    def test_remove(self, view):
        view.add(1)
        assert view.remove(1)
        assert 1 not in view
        assert not view.remove(1)

    def test_entries_snapshot(self, view):
        for node in (1, 2, 3):
            view.add(node)
        assert sorted(view.entries()) == [1, 2, 3]
        assert view.as_set() == {1, 2, 3}

    def test_clear(self, view):
        view.add(1)
        view.clear()
        assert len(view) == 0


class TestCapacityEviction:
    def test_full_flag(self, view):
        for node in range(5):
            view.add(node)
        assert view.is_full

    def test_add_when_full_evicts_one(self, view, rng):
        for node in range(5):
            view.add(node)
        assert view.add(100, rng)
        assert len(view) == 5
        assert 100 in view

    def test_never_exceeds_capacity_under_stress(self, rng):
        view = CoarseView(owner=0, capacity=7)
        for _ in range(500):
            view.add(rng.randrange(1, 100), rng)
            assert len(view) <= 7


class TestRandomChoice:
    def test_empty_returns_none(self, view, rng):
        assert view.random_choice(rng) is None

    def test_choice_is_member(self, view, rng):
        for node in range(1, 6):
            view.add(node)
        for _ in range(50):
            assert view.random_choice(rng) in view

    def test_choice_roughly_uniform(self, rng):
        view = CoarseView(owner=0, capacity=4)
        for node in (1, 2, 3, 4):
            view.add(node)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for _ in range(4000):
            counts[view.random_choice(rng)] += 1
        for count in counts.values():
            assert 800 < count < 1200

    def test_excluding(self, view, rng):
        view.add(1)
        view.add(2)
        for _ in range(20):
            assert view.random_choice_excluding(rng, excluded=1) == 2

    def test_excluding_only_member(self, view, rng):
        view.add(1)
        assert view.random_choice_excluding(rng, excluded=1) is None

    def test_excluding_empty(self, view, rng):
        assert view.random_choice_excluding(rng, excluded=1) is None


class TestReshuffle:
    def test_respects_capacity(self, view, rng):
        view.reshuffle(range(1, 50), rng)
        assert len(view) == 5

    def test_excludes_owner(self, view, rng):
        view.reshuffle([99, 1, 2], rng)
        assert 99 not in view

    def test_small_pool_kept_entirely(self, view, rng):
        view.reshuffle([1, 2], rng)
        assert view.as_set() == {1, 2}

    def test_no_duplicates(self, rng):
        view = CoarseView(owner=0, capacity=10)
        view.add(1)
        view.reshuffle([1, 1, 2, 2, 3], rng)
        entries = view.entries()
        assert len(entries) == len(set(entries))

    def test_union_of_old_and_new(self, view, rng):
        view.add(1)
        view.reshuffle([2, 3], rng)
        assert view.as_set() <= {1, 2, 3}
