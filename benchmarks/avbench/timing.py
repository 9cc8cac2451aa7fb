"""The timed phase: laps, in-run calibration and (when traced) profiling.

The sandbox this suite is tuned on is a shared 2-core VM whose speed
changes under the benchmark's feet — bursts of seconds, level shifts of
minutes, up to 2× — so raw host seconds of one commit can differ by more
than any bound a gate could use.  Most of that is common mode: everything
on the machine slows together.  The timed phase is therefore cut into
*laps*, and between laps the harness times a fixed pure-Python loop
(:func:`calibrate`).  A lap's **calibrated** seconds are its host seconds
multiplied by the host's speed around it (adjacent calibrations ÷ the
quiet reference box's rate): on the reference box in a quiet minute they
are the host seconds; in a noisy minute they are what the lap would have
taken there.  End-to-end times are reported calibrated; the raw host
numbers and the measured speed ride along as per-layer metrics.

Calibration laps are excluded from every wall and from the profile.
"""

from __future__ import annotations

import contextlib
import cProfile
import statistics
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

__all__ = ["REFERENCE_LOOPS_PER_S", "calibrate", "Lap", "Timing"]

#: :func:`calibrate` on the reference box (2 cores, Python 3.11) when
#: nothing else runs.  Only a scale: it makes calibrated seconds read as
#: that box's seconds.  Changing it rescales every calibrated metric.
REFERENCE_LOOPS_PER_S = 6.0e6

_SPIN_LOOPS = 40_000
_SPINS = 3


def _spin() -> float:
    """Loops per second of one fixed interpreter-bound loop (≈ 7 ms):
    dict stores and lookups, small-tuple allocation, integer arithmetic."""
    table: dict = {}
    started = time.perf_counter()
    for index in range(_SPIN_LOOPS):
        table[index & 1023] = (index, index + 1)
        table.get((index * 7) & 1023)
    return _SPIN_LOOPS / (time.perf_counter() - started)


def calibrate() -> float:
    """The host's speed right now, in loops/s (median of three spins)."""
    return statistics.median(_spin() for _ in range(_SPINS))


@dataclass(frozen=True)
class Lap:
    label: str
    #: Units of work done in the lap (0 for laps that only add to the wall).
    units: float
    #: Host seconds.
    wall: float
    #: Host speed around the lap, relative to the reference box.
    speed: float

    @property
    def calibrated(self) -> float:
        """What the lap would have taken on the quiet reference box."""
        return self.wall * self.speed


class Timing:
    """Marks a workload's timed phase, lap by lap."""

    def __init__(self, profiling: bool = False) -> None:
        self.profiling = profiling
        self.profile = cProfile.Profile() if profiling else None
        self.helpers: List = []
        self.laps: List[Lap] = []
        #: When the timed phase was entered (set-up ends here).
        self.started_at: Optional[float] = None
        #: The calibration taken on entry.
        self.first_calibration = 0.0
        self._calibration = 0.0
        self._lap_started = 0.0

    def add_helper(self, profiler) -> None:
        """A helper thread's profiler, switched with the timed phase."""
        self.helpers.append(profiler)

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        self.started_at = time.perf_counter()
        self.first_calibration = self._calibration = calibrate()
        for helper in self.helpers:
            helper.enable()
        self._resume()
        try:
            yield
        finally:
            if time.perf_counter() - self._lap_started > 1e-4:
                self.lap("rest", 0.0)  # timed work after the last lap
            if self.profile is not None:
                self.profile.disable()
            for helper in self.helpers:
                helper.disable()

    def _resume(self) -> None:
        if self.profile is not None:
            self.profile.enable()
        self._lap_started = time.perf_counter()

    def lap(self, label: str, units: float) -> None:
        """Close the running lap, calibrate, start the next one."""
        wall = time.perf_counter() - self._lap_started
        if self.profile is not None:
            self.profile.disable()
        before, self._calibration = self._calibration, calibrate()
        speed = (before + self._calibration) / 2.0 / REFERENCE_LOOPS_PER_S
        self.laps.append(Lap(label, units, wall, speed))
        self._resume()

    # -- what the laps add up to -------------------------------------------

    @property
    def wall_s(self) -> float:
        """Host seconds of the timed phase (calibration excluded)."""
        return sum(lap.wall for lap in self.laps)

    @property
    def calibrated_wall_s(self) -> float:
        return sum(lap.calibrated for lap in self.laps)

    @property
    def speed(self) -> float:
        """Median host speed over the laps (1.0 = the reference box)."""
        return statistics.median(lap.speed for lap in self.laps)

    def rate(self, label: str, *, calibrated: bool = True) -> float:
        """Median over the *label* laps of units per (calibrated) second."""
        return statistics.median(
            lap.units / (lap.calibrated if calibrated else lap.wall)
            for lap in self.laps
            if lap.label == label
        )
