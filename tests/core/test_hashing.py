"""Unit tests for the consistent pair-hash (Section 3.1's H)."""

import hashlib

import pytest

from repro.core.hashing import (
    ENDPOINT_BYTES,
    _digest_ceiling,
    PairHasher,
    available_algorithms,
    hash_pair,
    pack_endpoint,
    unpack_endpoint,
)


class TestPackEndpoint:
    def test_roundtrip(self):
        for node in (0, 1, 65535, 1 << 20, (1 << 48) - 1):
            assert unpack_endpoint(pack_endpoint(node)) == node

    def test_length(self):
        assert len(pack_endpoint(42)) == ENDPOINT_BYTES

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pack_endpoint(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            pack_endpoint(1 << 48)

    def test_unpack_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_endpoint(b"\x00\x01")

    def test_distinct_ids_pack_distinctly(self):
        packed = {pack_endpoint(n) for n in range(1000)}
        assert len(packed) == 1000


class TestHashPair:
    def test_range(self):
        for a in range(20):
            for b in range(20):
                value = hash_pair(a, b)
                assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert hash_pair(3, 7) == hash_pair(3, 7)

    def test_order_matters(self):
        # H(a, b) and H(b, a) are independent values; over many pairs they
        # should essentially never coincide.
        same = sum(1 for a in range(50) for b in range(a) if hash_pair(a, b) == hash_pair(b, a))
        assert same == 0

    def test_algorithms_give_different_values(self):
        values = {alg: hash_pair(5, 9, alg) for alg in available_algorithms()}
        assert len(set(values.values())) == len(values)

    def test_all_algorithms_in_range(self):
        for alg in available_algorithms():
            for a, b in ((0, 1), (123, 456), (99999, 3)):
                assert 0.0 <= hash_pair(a, b, alg) < 1.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown hash algorithm"):
            hash_pair(1, 2, "crc32")

    def test_roughly_uniform(self):
        # Mean of U(0,1) samples should be close to 0.5.
        values = [hash_pair(a, b) for a in range(40) for b in range(40) if a != b]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55

    def test_md5_matches_reference(self):
        # Pin the value so accidental changes to packing/truncation show up.
        digest = hashlib.md5(pack_endpoint(1) + pack_endpoint(2)).digest()
        expected = int.from_bytes(digest[:8], "big") / 2.0**64
        assert hash_pair(1, 2, "md5") == expected


class TestPairHasher:
    def test_counts_evaluations(self):
        hasher = PairHasher("md5")
        hasher(1, 2)
        hasher(1, 2)
        hasher(3, 4)
        assert hasher.evaluations == 3

    def test_matches_module_function(self):
        hasher = PairHasher("sha1")
        assert hasher(7, 8) == hash_pair(7, 8, "sha1")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            PairHasher("nope")

    def test_available_algorithms_sorted(self):
        algorithms = available_algorithms()
        assert list(algorithms) == sorted(algorithms)
        assert "md5" in algorithms and "splitmix64" in algorithms


class TestDigestCeiling:
    """The scan kernels compare digest bytes against ``_digest_ceiling``;
    that must decide exactly ``from_bytes(digest[:8]) <= bound``."""

    MASK = (1 << 64) - 1
    BOUNDS = (0, 1, 2**63 - 1, 2**63, 0x0123456789ABCDEF, MASK - 1, MASK)
    TAILS = (b"", b"\x00" * 8, b"\xff" * 8, bytes(range(12)), b"\xff" * 24, b"\x00" * 24)

    def test_edges_of_every_bound(self):
        for bound in self.BOUNDS:
            ceiling = _digest_ceiling(bound)
            for value in (bound - 1, bound, bound + 1, 0, self.MASK):
                if not 0 <= value <= self.MASK:
                    continue
                for tail in self.TAILS:
                    digest = value.to_bytes(8, "big") + tail
                    assert (digest <= ceiling) == (value <= bound), (bound, value, tail)

    def test_full_bound_admits_every_digest(self):
        ceiling = _digest_ceiling(self.MASK)
        for tail in self.TAILS:
            assert b"\xff" * 8 + tail <= ceiling

    def test_negative_bound_admits_nothing(self):
        ceiling = _digest_ceiling(-1)
        for tail in self.TAILS:
            assert not (b"\x00" * 8 + tail <= ceiling)

    def test_real_digests_agree_with_integer_compare(self):
        for bound in self.BOUNDS:
            ceiling = _digest_ceiling(bound)
            for a, b in ((0, 1), (1, 2), (77, 5), (123456, 654321)):
                for name in ("md5", "sha1"):
                    digest = hashlib.new(name, pack_endpoint(a) + pack_endpoint(b)).digest()
                    value = int.from_bytes(digest[:8], "big")
                    assert (digest <= ceiling) == (value <= bound)
