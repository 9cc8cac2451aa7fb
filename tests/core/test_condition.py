"""Unit tests for the consistency condition (Section 3.1)."""

import pytest

from repro.core.condition import ConsistencyCondition
from repro.core.hashing import hash_pair


@pytest.fixture
def condition():
    return ConsistencyCondition(k=8, n=100)


class TestConstruction:
    def test_threshold(self, condition):
        assert condition.threshold == pytest.approx(0.08)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ConsistencyCondition(k=0, n=100)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ConsistencyCondition(k=5, n=0)

    def test_k_exceeding_n(self):
        with pytest.raises(ValueError):
            ConsistencyCondition(k=101, n=100)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ConsistencyCondition(k=1, n=10, hash_algorithm="bogus")


class TestHolds:
    def test_matches_raw_hash(self, condition):
        for a in range(30):
            for b in range(30):
                if a == b:
                    continue
                expected = hash_pair(a, b) <= 0.08
                assert condition.holds(a, b) == expected

    def test_self_pair_never_holds(self, condition):
        for node in range(50):
            assert not condition.holds(node, node)

    def test_evaluations_counted_per_hash(self, condition):
        before = condition.hash_evaluations
        condition.holds(1, 2)
        condition.holds(2, 1)
        assert condition.hash_evaluations == before + 2

    def test_self_pair_costs_no_evaluation(self, condition):
        before = condition.hash_evaluations
        condition.holds(5, 5)
        assert condition.hash_evaluations == before

    def test_integer_bound_matches_float_threshold(self, condition):
        # The integer boundary is exactly the float comparison's boundary:
        # bound/2**64 passes, (bound+1)/2**64 fails.
        assert condition.bound / 2**64 <= condition.threshold
        assert (condition.bound + 1) / 2**64 > condition.threshold

    def test_directed_relation(self):
        # Over a large population, u in PS(v) must not imply v in PS(u).
        condition = ConsistencyCondition(k=30, n=100)
        asymmetric = sum(
            1
            for a in range(80)
            for b in range(a)
            if condition.holds(a, b) != condition.holds(b, a)
        )
        assert asymmetric > 0

    def test_aliases(self, condition):
        assert condition.is_monitor_of(3, 4) == condition.holds(3, 4)


class TestVerifyReport:
    def test_accepts_genuine_monitors(self, condition):
        target = 7
        genuine = [u for u in range(500) if condition.holds(u, target)]
        assert genuine, "expected at least one genuine monitor in 500 ids"
        assert condition.verify_report(target, genuine[:3])

    def test_rejects_fake_monitor(self, condition):
        target = 7
        fake = next(u for u in range(500) if u != target and not condition.holds(u, target))
        assert not condition.verify_report(target, [fake])

    def test_empty_report_verifies(self, condition):
        assert condition.verify_report(7, [])


class TestExpectedPsSize:
    def test_empirical_ps_size_near_expected(self):
        condition = ConsistencyCondition(k=10, n=200)
        population = range(200)
        sizes = [
            sum(1 for u in population if condition.holds(u, target))
            for target in range(40)
        ]
        average = sum(sizes) / len(sizes)
        # Binomial(199, 0.05): mean ~10; allow generous slack.
        assert 6.0 < average < 14.0
