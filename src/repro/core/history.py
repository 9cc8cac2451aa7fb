"""Availability-history maintenance (the paper's sub-problem II).

Section 1 splits availability monitoring into (I) selecting/discovering the
monitoring overlay — the paper's focus — and (II) how a monitor stores a
target's availability history, which is orthogonal: "any existing technique
for availability history maintenance, such as raw, aged, recent, etc. [9],
can be used orthogonally with any availability monitoring overlay".

This module implements the three classic stores so that the monitoring layer
and the example applications (availability-aware replication, prediction)
have a real sub-problem-II implementation to plug in:

* :class:`RawHistory` — every (time, up?) sample, exact availability;
* :class:`RecentWindowHistory` — sliding window of the last W samples;
* :class:`AgedHistory` — exponentially weighted moving average.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

__all__ = [
    "AvailabilityHistory",
    "RawHistory",
    "RecentWindowHistory",
    "AgedHistory",
    "make_history",
]


class AvailabilityHistory:
    """Interface: record ping outcomes, report an availability estimate."""

    def record(self, time: float, up: bool) -> None:
        raise NotImplementedError

    def availability(self) -> float:
        """Estimated availability in ``[0, 1]`` (0.0 when no samples)."""
        raise NotImplementedError

    def sample_count(self) -> int:
        raise NotImplementedError


class RawHistory(AvailabilityHistory):
    """Stores every sample; availability = fraction of up samples."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[Tuple[float, bool]] = []

    def record(self, time: float, up: bool) -> None:
        self._samples.append((time, up))

    def availability(self) -> float:
        if not self._samples:
            return 0.0
        up = sum(1 for _, alive in self._samples if alive)
        return up / len(self._samples)

    def sample_count(self) -> int:
        return len(self._samples)

    def samples(self) -> Tuple[Tuple[float, bool], ...]:
        """Full raw record (for prediction-style consumers)."""
        return tuple(self._samples)



class RecentWindowHistory(AvailabilityHistory):
    """Keeps only the last *window* samples ("recent" in [9])."""

    __slots__ = ("window", "_samples", "_up_count")

    def __init__(self, window: int = 128) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: Deque[bool] = deque(maxlen=window)
        self._up_count = 0

    def record(self, time: float, up: bool) -> None:
        if len(self._samples) == self.window and self._samples[0]:
            self._up_count -= 1
        self._samples.append(up)
        if up:
            self._up_count += 1

    def availability(self) -> float:
        if not self._samples:
            return 0.0
        return self._up_count / len(self._samples)

    def sample_count(self) -> int:
        return len(self._samples)


class AgedHistory(AvailabilityHistory):
    """Exponentially aged estimate ("aged" in [9]).

    ``estimate ← (1 − alpha)·estimate + alpha·sample`` with smoothing factor
    *alpha*; recent behaviour dominates, old sessions fade.
    """

    __slots__ = ("alpha", "_estimate", "_count")

    def __init__(self, alpha: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._estimate = 0.0
        self._count = 0

    def record(self, time: float, up: bool) -> None:
        sample = 1.0 if up else 0.0
        if self._count == 0:
            self._estimate = sample
        else:
            self._estimate = (1.0 - self.alpha) * self._estimate + self.alpha * sample
        self._count += 1

    def availability(self) -> float:
        return self._estimate if self._count else 0.0

    def sample_count(self) -> int:
        return self._count


def make_history(kind: str = "raw", **kwargs) -> AvailabilityHistory:
    """Factory over the three history flavours: raw / recent / aged."""
    key = kind.lower()
    if key == "raw":
        return RawHistory(**kwargs)
    if key == "recent":
        return RecentWindowHistory(**kwargs)
    if key == "aged":
        return AgedHistory(**kwargs)
    raise ValueError(f"unknown history kind {kind!r}; expected raw, recent or aged")
