"""Property-based tests: pair counting and match finding vs brute force."""

from hypothesis import given, strategies as st
from relation_oracle import monitors_of

from repro.core.condition import ConsistencyCondition
from repro.core.relation import MonitorRelation, count_cross_pairs

small_sets = st.sets(st.integers(min_value=0, max_value=40), max_size=12)


@given(small_sets, small_sets)
def test_count_cross_pairs_matches_brute_force(view_a, view_b):
    brute = {
        (u, v)
        for u in view_a
        for v in view_b
        if u != v
    } | {
        (u, v)
        for u in view_b
        for v in view_a
        if u != v
    }
    assert count_cross_pairs(view_a, view_b) == len(brute)


@given(small_sets, small_sets)
def test_find_matches_equals_filtered_brute_force(view_a, view_b):
    condition = ConsistencyCondition(k=15, n=41)
    relation = MonitorRelation(condition)
    relation.add_nodes(range(41))
    brute = {
        (u, v)
        for u in view_a | view_b
        for v in view_a | view_b
        if u != v
        and ((u in view_a and v in view_b) or (u in view_b and v in view_a))
        and condition.holds(u, v)
    }
    assert relation.find_matches(view_a, view_b) == brute


@given(st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=50))
def test_ts_ps_are_inverse_relations(ids):
    condition = ConsistencyCondition(k=20, n=100)
    relation = MonitorRelation(condition)
    relation.add_nodes(ids)
    for v in ids:
        transposed = {u for u in ids if v in relation.targets_of(u)}
        assert transposed == monitors_of(condition, v, ids)


@given(
    st.sets(st.integers(min_value=0, max_value=99), min_size=1, max_size=20),
    st.sets(st.integers(min_value=100, max_value=199), min_size=1, max_size=20),
)
def test_incremental_equals_batch(first_batch, second_batch):
    condition_a = ConsistencyCondition(k=10, n=100)
    incremental = MonitorRelation(condition_a)
    incremental.add_nodes(first_batch)
    probe = min(first_batch)
    incremental.targets_of(probe)  # force a partial scan
    incremental.add_nodes(second_batch)

    condition_b = ConsistencyCondition(k=10, n=100)
    batch = MonitorRelation(condition_b)
    batch.add_nodes(first_batch | second_batch)

    assert incremental.targets_of(probe) == batch.targets_of(probe)
    ids = first_batch | second_batch
    assert {u for u in ids if probe in incremental.targets_of(u)} == monitors_of(
        condition_b, probe, ids
    )
