"""Brute-force pinging sets for tests that analyse the monitor relation.

``MonitorRelation`` indexes one direction only (``TS``); a test that needs
``PS(target)`` asks the condition about every candidate instead, which is
also an oracle independent of the relation's scan kernels.
"""

from __future__ import annotations


def monitors_of(condition, target, universe) -> set:
    """``PS(target)``: every id in *universe* that would monitor *target*."""
    return {monitor for monitor in universe if condition.holds(monitor, target)}
