"""Per-node bandwidth accounting.

Section 5.4 plots the CDF of per-node *outgoing* bytes per second, so the
network charges each sent message's wire size to the sender at send time
(whether or not the destination turns out to be alive — the bytes leave the
NIC either way).

Counters are kept as one ``[bytes, messages]`` entry per sender — a single
dict probe per charge, which matters because every simulated message is
charged exactly once.  Totals are derived on demand.  Entry insertion order
is first-charge order; :meth:`snapshot` preserves it, and downstream series
(the bandwidth CDF in the run summary) depend on that order being stable.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["BandwidthAccountant"]


class BandwidthAccountant:
    """Accumulates outgoing bytes and message counts per node."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        #: sender -> [bytes_out, messages_out], in first-charge order.
        self._entries: Dict[int, List[int]] = {}

    def charge(self, sender: int, size_bytes: int) -> None:
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        entry = self._entries.get(sender)
        if entry is None:
            self._entries[sender] = [size_bytes, 1]
        else:
            entry[0] += size_bytes
            entry[1] += 1

    @property
    def total_bytes(self) -> int:
        return sum(entry[0] for entry in self._entries.values())

    @property
    def total_messages(self) -> int:
        return sum(entry[1] for entry in self._entries.values())

    def bytes_out(self, node: int) -> int:
        entry = self._entries.get(node)
        return entry[0] if entry is not None else 0

    def messages_out(self, node: int) -> int:
        entry = self._entries.get(node)
        return entry[1] if entry is not None else 0

    def nodes(self):
        return self._entries.keys()

    def snapshot(self) -> Dict[int, int]:
        """Copy of the per-node byte counters (for windowed measurement)."""
        return {node: entry[0] for node, entry in self._entries.items()}
