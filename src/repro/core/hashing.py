"""Consistent pair hashing for the AVMON monitor-selection scheme.

Section 3.1 of the paper defines the monitoring relationship through a
consistent hash function ``H`` applied to the ``<IPaddress, portnumber>``
pairs of two nodes, with its range normalised to the real interval
``[0, 1)``.  The paper's implementation used libSSL's MD5 and considered only
the first 64 bits of the digest (Section 5); we reproduce exactly that, and
additionally offer SHA-1, BLAKE2b and a fast non-cryptographic SplitMix64
mixer for very large simulations.

The digests are the paper's MD5 (and SHA-1), computed by CPython's builtin
implementations (``_md5``, ``_sha1``): on a 12-byte input they skip the
OpenSSL EVP set-up that ``hashlib``'s constructors pay per call (about half
the cost per pair on CPython 3.11, x86_64).  Where an interpreter lacks those
modules, ``hashlib``'s constructors are used; both give the same digest, so
nothing seeded depends on which one runs.

Node identities in this library are plain integers.  To stay faithful to the
paper's hashing over endpoints, each integer id is packed into a synthetic
6-byte ``<IP, port>`` endpoint (4 bytes of address, 2 bytes of port) before
hashing, so a hashed pair covers 12 bytes of input exactly as in the paper's
back-of-the-envelope computation cost analysis (Section 4.1).
"""

from __future__ import annotations

import hashlib

try:
    from _md5 import md5 as _md5
    from _sha1 import sha1 as _sha1
except ImportError:  # an interpreter built without the builtin modules
    _md5, _sha1 = hashlib.md5, hashlib.sha1

__all__ = [
    "NodeId",
    "ENDPOINT_BYTES",
    "pack_endpoint",
    "unpack_endpoint",
    "hash_pair",
    "hash_pair_u64",
    "unit_threshold_bound",
    "PairHasher",
    "available_algorithms",
]

NodeId = int

#: Number of bytes a packed ``<IP, port>`` endpoint occupies.
ENDPOINT_BYTES = 6

#: Normalisation constant: ``H(a, b)`` is its raw 64-bit value over 2**64.
_TWO_64 = float(2**64)

# SplitMix64 constants (Steele, Lea, Flood 2014); used by the fast
# non-cryptographic algorithm only.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
#: Salt mixed into the SplitMix64 pair derivation.  Two dependent rounds keep
#: the pair ordering significant: H(a,b) and H(b,a) are unrelated values,
#: exactly as for the cryptographic hashes.
_SM64_PAIR_SALT = 0xA5A5A5A5A5A5A5A5
_MASK64 = (1 << 64) - 1


def pack_endpoint(node: NodeId) -> bytes:
    """Pack an integer node id into a synthetic 6-byte ``<IP, port>`` pair.

    The low 16 bits become the port and the next 32 bits the IPv4 address,
    mirroring how a deployment would feed a real endpoint to the hash.  Ids
    must be non-negative and fit in 48 bits.
    """
    if node < 0:
        raise ValueError(f"node id must be non-negative, got {node}")
    if node >= 1 << 48:
        raise ValueError(f"node id must fit in 48 bits, got {node}")
    return node.to_bytes(ENDPOINT_BYTES, "big")


def unpack_endpoint(data: bytes) -> NodeId:
    """Inverse of :func:`pack_endpoint`."""
    if len(data) != ENDPOINT_BYTES:
        raise ValueError(f"endpoint must be {ENDPOINT_BYTES} bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def _splitmix64(value: int) -> int:
    """One round of the SplitMix64 finaliser over a 64-bit value."""
    value = (value + _SM64_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * _SM64_MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _SM64_MIX2) & _MASK64
    return value ^ (value >> 31)


# -- integer-domain evaluation ----------------------------------------------
#
# Every algorithm derives ``H(a, b)`` from a 64-bit integer ``u`` as
# ``u / 2**64``.  Comparing against a threshold is therefore a pure integer
# comparison once the threshold is converted to the exact integer boundary
# of the float comparison (unit_threshold_bound), so the consistency
# condition's hot path needs no float division at all while remaining
# bit-for-bit equivalent to ``hash_pair(a, b) <= threshold``.
#
# Each algorithm is a pair of functions: ``pair_u64(a, b)`` for one ordered
# pair, and a scan kernel that evaluates a fixed node as monitor against a
# slice of the universe (repro.core.relation).  Doing that through per-pair
# calls costs more in interpreter overhead than in hashing, so the kernel
# walks the caller's preconverted id/endpoint arrays in one tight loop and
# emits matching ids, in universe order, through an ``emit`` callable
# (typically ``set.add``).  Kernels return the number of pairs hashed so
# callers can maintain evaluation counters; the self pair is skipped
# without hashing, exactly as in single-pair evaluation.


def _digest_ceiling(bound: int) -> bytes:
    """Bytes ``c`` with ``digest <= c`` iff ``from_bytes(digest[:8]) <= bound``.

    Exact for a bound below 2**64 and every digest of 8 to 32 bytes: the
    first 8 bytes compare as the big-endian integer, and on a tie the
    ``0xff`` tail is never smaller than the rest of the digest.  A negative
    bound admits nothing (every digest is greater than ``b""``).
    """
    if bound < 0:
        return b""
    return bound.to_bytes(8, "big") + b"\xff" * 24


def _digest_algorithm(new_digest):
    """``(pair_u64, scan_targets)`` for *new_digest*, which maps bytes to a
    hash object.

    The scan absorbs the fixed node's endpoint once per row and, per pair,
    copies that state, absorbs the candidate's preconverted endpoint and
    compares the digest bytes against the bound's ceiling
    (:func:`_digest_ceiling`), which needs no per-pair integer conversion.
    """

    def pair_u64(a: NodeId, b: NodeId) -> int:
        digest = new_digest(pack_endpoint(a) + pack_endpoint(b)).digest()
        return int.from_bytes(digest[:8], "big")

    def scan_targets(fixed, ids, packed, start, stop, bound, emit) -> int:
        copy = new_digest(pack_endpoint(fixed)).copy
        ceiling = _digest_ceiling(bound)
        row = ids[start:stop]
        count = len(row)
        for v, pv in zip(row, packed[start:stop]):
            if v == fixed:
                count -= 1
                continue
            state = copy()
            state.update(pv)
            if state.digest() <= ceiling:
                emit(v)
        return count

    return pair_u64, scan_targets


def _splitmix_pair_u64(a: NodeId, b: NodeId) -> int:
    return _splitmix64(_splitmix64(a) ^ ((b << 1) & _MASK64) ^ _SM64_PAIR_SALT)


def _splitmix_scan_targets(fixed, ids, packed, start, stop, bound, emit) -> int:
    mixed_fixed = _splitmix64(fixed) ^ _SM64_PAIR_SALT
    row = ids[start:stop]
    count = len(row)
    for v in row:
        if v == fixed:
            count -= 1
            continue
        x = ((mixed_fixed ^ ((v << 1) & _MASK64)) + _SM64_GAMMA) & _MASK64
        x = ((x ^ (x >> 30)) * _SM64_MIX1) & _MASK64
        x = ((x ^ (x >> 27)) * _SM64_MIX2) & _MASK64
        if (x ^ (x >> 31)) <= bound:
            emit(v)
    return count


def _blake2b_8(data: bytes):
    return hashlib.blake2b(data, digest_size=8)


_ALGORITHMS = {
    "md5": _digest_algorithm(_md5),
    "sha1": _digest_algorithm(_sha1),
    "blake2b": _digest_algorithm(_blake2b_8),
    "splitmix64": (_splitmix_pair_u64, _splitmix_scan_targets),
}


def unit_threshold_bound(threshold: float) -> int:
    """Largest 64-bit ``u`` with ``u / 2**64 <= threshold`` (float compare).

    ``u / 2**64`` is the correctly-rounded double of the real quotient —
    exactly the value every float pair hash yields — and is monotone
    non-decreasing in ``u``, so ``hash_pair(a, b) <= threshold`` holds iff
    ``hash_pair_u64(a, b) <= unit_threshold_bound(threshold)``.  Returns -1
    (no value satisfies the comparison) for NaN or negative thresholds.
    """
    if threshold != threshold or threshold < 0.0:  # NaN or negative
        return -1
    if threshold >= 1.0:
        return _MASK64
    lo, hi = 0, _MASK64  # invariant: pred(lo) true (0.0 <= t), pred(hi) false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid / 2**64 <= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def _algorithm(algorithm: str) -> tuple:
    try:
        return _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown hash algorithm {algorithm!r}; "
            f"available: {', '.join(available_algorithms())}"
        ) from None


def hash_pair_u64(a: NodeId, b: NodeId, algorithm: str = "md5") -> int:
    """``H(a, b)`` as the raw 64-bit integer the float value derives from.

    ``hash_pair(a, b, alg) == hash_pair_u64(a, b, alg) / 2**64`` exactly.
    """
    return _algorithm(algorithm)[0](a, b)


def available_algorithms() -> tuple:
    """Names of the registered pair-hash algorithms."""
    return tuple(sorted(_ALGORITHMS))


def hash_pair(a: NodeId, b: NodeId, algorithm: str = "md5") -> float:
    """Return ``H(a, b)`` in ``[0, 1)`` for the ordered node pair ``(a, b)``.

    ``H`` is consistent (a pure function of the two ids), verifiable by any
    third party, and behaves like a uniform random value over ``[0, 1)`` —
    the three properties Section 3.1 requires of the selection scheme.
    """
    return _algorithm(algorithm)[0](a, b) / _TWO_64


class PairHasher:
    """A bound pair-hash function with per-instance evaluation counting.

    The counter lets callers measure how many *actual* hash evaluations an
    algorithm performed, which the analysis in Section 4.1 cares about.
    Both the float view (``hasher(a, b)``) and the integer view
    (:meth:`pair_u64`, :meth:`scan_targets`) count into the same total.
    """

    __slots__ = ("algorithm", "_fn_u64", "_scan_targets", "evaluations")

    def __init__(self, algorithm: str = "md5") -> None:
        self._fn_u64, self._scan_targets = _algorithm(algorithm)
        self.algorithm = algorithm
        self.evaluations = 0

    def __call__(self, a: NodeId, b: NodeId) -> float:
        self.evaluations += 1
        return self._fn_u64(a, b) / _TWO_64

    def pair_u64(self, a: NodeId, b: NodeId) -> int:
        """``H(a, b)`` as the raw 64-bit integer (see :func:`hash_pair_u64`)."""
        self.evaluations += 1
        return self._fn_u64(a, b)

    def scan_targets(self, fixed, ids, packed, start, stop, bound, emit) -> None:
        """Emit every ``v`` in ``ids[start:stop]`` with ``H(fixed, v) <= bound``.

        ``packed`` must hold ``pack_endpoint(ids[i])`` at matching indexes
        (digest algorithms read it; SplitMix64 ignores it).  Matches are
        emitted in ``ids`` order; the self pair is skipped without hashing,
        exactly as in single-pair evaluation.
        """
        self.evaluations += self._scan_targets(
            fixed, ids, packed, start, stop, bound, emit
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairHasher(algorithm={self.algorithm!r}, evaluations={self.evaluations})"
