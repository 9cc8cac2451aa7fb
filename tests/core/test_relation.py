"""Unit tests for the incremental monitor relation and pair counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from relation_oracle import monitors_of

from repro.core.condition import ConsistencyCondition
from repro.core.relation import MonitorRelation, count_cross_pairs


def brute_force_pairs(view_a, view_b):
    pairs = set()
    for u in view_a:
        for v in view_b:
            if u != v:
                pairs.add((u, v))
    for u in view_b:
        for v in view_a:
            if u != v:
                pairs.add((u, v))
    return pairs


class TestCountCrossPairs:
    def test_disjoint(self):
        a, b = {1, 2, 3}, {4, 5}
        assert count_cross_pairs(a, b) == len(brute_force_pairs(a, b))

    def test_identical(self):
        a = {1, 2, 3, 4}
        assert count_cross_pairs(a, a) == len(brute_force_pairs(a, a))

    def test_partial_overlap(self):
        a, b = {1, 2, 3}, {3, 4}
        assert count_cross_pairs(a, b) == len(brute_force_pairs(a, b))

    def test_empty(self):
        assert count_cross_pairs(set(), {1, 2}) == 0
        assert count_cross_pairs(set(), set()) == 0

    def test_singletons(self):
        assert count_cross_pairs({1}, {1}) == 0
        assert count_cross_pairs({1}, {2}) == 2


@pytest.fixture
def relation():
    condition = ConsistencyCondition(k=12, n=60)
    rel = MonitorRelation(condition)
    rel.add_nodes(range(60))
    return rel


class TestDirectedSets:
    def test_targets_match_condition(self, relation):
        condition = relation.condition
        for monitor in range(10):
            expected = {v for v in range(60) if condition.holds(monitor, v)}
            assert relation.targets_of(monitor) == expected

    def test_monitors_match_condition(self, relation):
        condition = relation.condition
        for target in range(10):
            transposed = {u for u in range(60) if target in relation.targets_of(u)}
            assert transposed == monitors_of(condition, target, range(60))

    def test_incremental_growth(self, relation):
        before = set(relation.targets_of(0))
        relation.add_nodes(range(60, 120))
        after = relation.targets_of(0)
        assert before <= after
        condition = relation.condition
        expected_new = {v for v in range(60, 120) if condition.holds(0, v)}
        assert after - before == expected_new

    def test_unknown_node_rejected(self, relation):
        with pytest.raises(KeyError):
            relation.targets_of(999)

    def test_duplicate_add_ignored(self, relation):
        size = relation.universe_size()
        relation.add_node(5)
        assert relation.universe_size() == size

    def test_contains(self, relation):
        assert 5 in relation
        assert 999 not in relation

    def test_an_id_that_is_no_endpoint_leaves_the_relation_as_it_was(self):
        """2**48 fits no 48-bit endpoint.  Registering it used to add it to
        the id set and the universe before the packing refused it, so
        every id added afterwards was scanned with its neighbour's
        endpoint."""
        condition = ConsistencyCondition(5, 30)
        relation = MonitorRelation(condition)
        relation.add_nodes(range(10))
        with pytest.raises(ValueError):
            relation.add_node(1 << 48)
        relation.add_nodes(range(10, 40))
        assert 1 << 48 not in relation and relation.universe_size() == 40
        for monitor in range(40):
            assert relation.targets_of(monitor) == {
                v for v in range(40) if v != monitor and condition.holds(monitor, v)
            }


class TestFindMatches:
    def test_matches_brute_force(self, relation):
        condition = relation.condition
        view_a = {0, 1, 2, 3, 10, 11}
        view_b = {3, 4, 5, 20, 21}
        expected = {
            (u, v)
            for (u, v) in brute_force_pairs(view_a, view_b)
            if condition.holds(u, v)
        }
        assert relation.find_matches(view_a, view_b) == expected

    def test_no_self_pairs(self, relation):
        matches = relation.find_matches({1, 2, 3}, {1, 2, 3})
        assert all(u != v for u, v in matches)

    def test_empty_views(self, relation):
        assert relation.find_matches(set(), {1, 2}) == set()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_superset_relation_finds_a_private_ones_matches(self, data):
        """The memory fabric's one shared relation: for views inside a
        node's own universe, a relation over any superset universe, its
        ids learnt and its rows built in any order, finds the same
        matches as the node's private relation."""
        ids = data.draw(st.lists(st.integers(0, 300), min_size=2, max_size=90, unique=True))
        own = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        views = st.lists(st.sampled_from(own), max_size=14).map(set)
        view_a, view_b = data.draw(views), data.draw(views)
        condition = ConsistencyCondition(k=6, n=40)
        shared, private = MonitorRelation(condition), MonitorRelation(condition)
        private.add_nodes(own)
        # The shared universe grows in two steps, with rows built before,
        # between and after them, in a drawn order.
        learnt = data.draw(st.permutations(ids))
        cut = data.draw(st.integers(0, len(learnt)))
        shared.add_nodes(learnt[:cut])
        for node in data.draw(st.permutations(learnt[:cut]))[: cut // 2]:
            shared.targets_of(node)
        shared.add_nodes(learnt[cut:])
        for node in data.draw(st.permutations(ids))[: len(ids) // 3]:
            shared.targets_of(node)
        assert shared.find_matches(view_a, view_b) == private.find_matches(
            view_a, view_b
        )
