"""AVMON node configuration (protocol constants of Sections 3 and 5)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import optimal
from .condition import ConsistencyCondition
from .hashing import available_algorithms

__all__ = ["AvmonConfig"]


@dataclass(frozen=True)
class AvmonConfig:
    """All tunables of an AVMON deployment.

    Defaults follow the paper's experimental setup (Section 5): protocol
    period T = 60 s, monitoring period T_A = 60 s, ``K = log2(N)``,
    ``cvs = 4·N^{1/4}``, forgetful pinging with τ = 120 s and c = 1, and
    8-byte wire entries.
    """

    #: Expected stable system size (the consistent parameter ``N``).
    n_expected: int
    #: Expected pinging-set size (the consistent parameter ``K``).
    k: int
    #: Maximum coarse-view size.
    cvs: int
    #: Coarse-membership protocol period T, in seconds (Figure 2).
    protocol_period: float = 60.0
    #: Monitoring-ping period T_A, in seconds (Section 3.3).
    monitoring_period: float = 60.0
    #: Forgetful-pinging time threshold τ, in seconds.
    forgetful_tau: float = 120.0
    #: Forgetful-pinging target ping count c between successive joins.
    forgetful_c: float = 1.0
    #: Whether the forgetful-pinging optimisation is active.
    enable_forgetful: bool = True
    #: Whether the PR2 in-degree refresh of Section 5.4 is active.
    enable_pr2: bool = False
    #: Seconds a node waits for a ping/fetch reply before declaring failure.
    ping_timeout: float = 5.0
    #: Wire size of one view entry / ping message, in bytes (Section 5.1).
    entry_bytes: int = 8
    #: Pair-hash algorithm backing the consistency condition.
    hash_algorithm: str = "md5"

    def __post_init__(self) -> None:
        if self.n_expected <= 1:
            raise ValueError(f"n_expected must exceed 1, got {self.n_expected}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.k > self.n_expected:
            raise ValueError(f"k ({self.k}) must not exceed N ({self.n_expected})")
        if self.cvs <= 0:
            raise ValueError(f"cvs must be positive, got {self.cvs}")
        if self.protocol_period <= 0:
            raise ValueError(f"protocol_period must be positive, got {self.protocol_period}")
        if self.monitoring_period <= 0:
            raise ValueError(
                f"monitoring_period must be positive, got {self.monitoring_period}"
            )
        if self.forgetful_tau < 0:
            raise ValueError(f"forgetful_tau must be non-negative, got {self.forgetful_tau}")
        if self.forgetful_c <= 0:
            raise ValueError(f"forgetful_c must be positive, got {self.forgetful_c}")
        if self.ping_timeout <= 0:
            raise ValueError(f"ping_timeout must be positive, got {self.ping_timeout}")
        if self.ping_timeout >= min(self.protocol_period, self.monitoring_period):
            raise ValueError(
                "ping_timeout must be shorter than both protocol periods "
                f"(got {self.ping_timeout})"
            )
        if self.entry_bytes <= 0:
            raise ValueError(f"entry_bytes must be positive, got {self.entry_bytes}")
        if self.hash_algorithm not in available_algorithms():
            raise ValueError(
                f"unknown hash algorithm {self.hash_algorithm!r}; "
                f"available: {', '.join(available_algorithms())}"
            )

    @classmethod
    def paper_defaults(cls, n_expected: int, **overrides) -> "AvmonConfig":
        """Section 5 defaults: ``K = log2(N)``, ``cvs = 4·N^{1/4}``."""
        k = overrides.pop("k", max(1, round(math.log2(n_expected))))
        cvs = overrides.pop("cvs", optimal.cvs_paper_default(n_expected))
        return cls(n_expected=n_expected, k=k, cvs=cvs, **overrides)

    @classmethod
    def for_variant(cls, n_expected: int, variant: str, **overrides) -> "AvmonConfig":
        """Build a config for a named optimal variant (md/mdc/dc/log/paper)."""
        k = overrides.pop("k", max(1, round(math.log2(n_expected))))
        cvs = overrides.pop("cvs", optimal.cvs_for_variant(n_expected, variant))
        return cls(n_expected=n_expected, k=k, cvs=cvs, **overrides)

    def with_overrides(self, **changes) -> "AvmonConfig":
        """Functional update preserving immutability."""
        return replace(self, **changes)

    def condition(self) -> ConsistencyCondition:
        """A :class:`ConsistencyCondition` for this config's ``H(u,v) <= K/N``."""
        return ConsistencyCondition(self.k, self.n_expected, self.hash_algorithm)

    @property
    def consistency_threshold(self) -> float:
        """``K/N``, the probability mass of the consistency condition."""
        return self.k / self.n_expected

    @property
    def expected_memory_entries(self) -> float:
        """Expected steady-state ``|CV| + |PS| + |TS|`` = ``cvs + 2K``."""
        return self.cvs + 2.0 * self.k

    @property
    def expected_discovery_periods(self) -> float:
        """E[D] for this cvs/N, in protocol periods (Section 4.1)."""
        return optimal.expected_discovery_time(self.cvs, self.n_expected)
