"""Property tests: the integer-domain condition is the float condition.

The tentpole claim of the scale-out rewrite is that evaluating
``hash_u64 <= bound`` (one integer compare) decides *exactly* the same
relation as the original ``hash_float <= k/n``: same hash inputs, same
float-rounding boundary, every algorithm.  These properties are what lets
the relation's scan kernels replace per-pair float evaluation without
moving a byte of any summary.
"""

import hashlib
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.condition import ConsistencyCondition
from repro.core.hashing import (
    _ALGORITHMS,
    _digest_algorithm,
    available_algorithms,
    hash_pair,
    hash_pair_u64,
    pack_endpoint,
    unit_threshold_bound,
)
from repro.core.relation import MonitorRelation

node_ids = st.integers(min_value=0, max_value=(1 << 48) - 1)
algorithms = st.sampled_from(available_algorithms())


@given(node_ids, node_ids, algorithms)
def test_u64_is_exact_preimage_of_float_hash(a, b, algorithm):
    # int/int true division is correctly rounded, so this equality is exact,
    # not approximate.
    assert hash_pair(a, b, algorithm) == hash_pair_u64(a, b, algorithm) / 2**64


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    node_ids,
    node_ids,
    algorithms,
)
def test_integer_condition_agrees_with_float_condition(k, n, a, b, algorithm):
    if k > n:
        k, n = n, k
    condition = ConsistencyCondition(k=k, n=n, hash_algorithm=algorithm)
    float_verdict = a != b and hash_pair(a, b, algorithm) <= k / n
    assert condition.holds(a, b) == float_verdict


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_unit_threshold_bound_is_the_exact_boundary(threshold):
    bound = unit_threshold_bound(threshold)
    mask = (1 << 64) - 1
    if bound >= 0:
        assert bound / 2**64 <= threshold
    if bound < mask:
        assert (bound + 1) / 2**64 > threshold


@given(
    st.sets(node_ids, min_size=1, max_size=40),
    st.integers(min_value=1, max_value=20),
    algorithms,
)
@settings(max_examples=40)
def test_scan_kernels_agree_with_holds(ids, k, algorithm):
    condition = ConsistencyCondition(k=k, n=40, hash_algorithm=algorithm)
    relation = MonitorRelation(condition)
    relation.add_nodes(ids)
    reference = ConsistencyCondition(k=k, n=40, hash_algorithm=algorithm)
    for fixed in list(ids)[:5]:
        expected_ts = {v for v in ids if reference.holds(fixed, v)}
        assert relation.targets_of(fixed) == expected_ts


@given(node_ids, algorithms)
def test_self_pairs_never_hold(node, algorithm):
    condition = ConsistencyCondition(k=10, n=10, hash_algorithm=algorithm)
    # Even with threshold 1.0 (every non-self pair holds), self pairs don't.
    assert not condition.holds(node, node)
    assert condition.bound == (1 << 64) - 1


# -- scan kernels against the per-pair oracle ---------------------------------
#
# Each kernel is checked as built from every digest constructor the module
# may pick: CPython's builtin ``_md5``/``_sha1`` and ``hashlib``'s fallback.
# Under an interpreter without the builtin modules the builtin cases skip.


def _builtin_constructor(algorithm):
    try:
        module = importlib.import_module(f"_{algorithm}")
    except ImportError:
        return None
    return getattr(module, algorithm)


def _kernel_builds():
    for algorithm in ("md5", "sha1"):
        yield pytest.param(
            algorithm,
            _digest_algorithm(getattr(hashlib, algorithm)),
            id=f"{algorithm}-hashlib",
        )
        builtin = _builtin_constructor(algorithm)
        yield pytest.param(
            algorithm,
            builtin and _digest_algorithm(builtin),
            id=f"{algorithm}-builtin",
            marks=pytest.mark.skipif(builtin is None, reason=f"no _{algorithm}"),
        )
    for algorithm in ("blake2b", "splitmix64"):
        yield pytest.param(algorithm, _ALGORITHMS[algorithm], id=algorithm)


@st.composite
def kernel_cases(draw):
    """A universe, a slice of it, a fixed node placed relative to the slice,
    and a condition — including ``k == n`` and vanishing thresholds."""
    ids = draw(st.lists(node_ids, unique=True, max_size=24))
    start = draw(st.integers(min_value=0, max_value=len(ids)))
    stop = draw(st.integers(min_value=start, max_value=len(ids)))
    places = ["absent"]
    if stop > start:
        places += ["first", "last", "inside"]
    if start > 0 or stop < len(ids):
        places.append("outside")
    place = draw(st.sampled_from(places))
    if place == "first":
        fixed = ids[start]
    elif place == "last":
        fixed = ids[stop - 1]
    elif place == "inside":
        fixed = ids[draw(st.integers(min_value=start, max_value=stop - 1))]
    elif place == "outside":
        fixed = draw(st.sampled_from(ids[:start] + ids[stop:]))
    else:
        fixed = draw(node_ids.filter(lambda node: node not in ids))
    n = draw(st.integers(min_value=1, max_value=1 << 62))
    k = draw(st.one_of(st.just(n), st.just(1), st.integers(min_value=1, max_value=n)))
    return ids, start, stop, fixed, k, n


@pytest.mark.parametrize("algorithm, build", list(_kernel_builds()))
@given(case=kernel_cases())
@settings(max_examples=80)
def test_scan_kernel_matches_per_pair_holds(algorithm, build, case):
    ids, start, stop, fixed, k, n = case
    pair_u64, scan_targets = build
    condition = ConsistencyCondition(k=k, n=n, hash_algorithm=algorithm)
    emitted = []
    count = scan_targets(
        fixed,
        ids,
        [pack_endpoint(v) for v in ids],
        start,
        stop,
        condition.bound,
        emitted.append,
    )
    row = ids[start:stop]
    assert emitted == [v for v in row if condition.holds(fixed, v)]
    assert count == sum(1 for v in row if v != fixed)
    for v in row:
        assert pair_u64(fixed, v) == hash_pair_u64(fixed, v, algorithm)
