"""Read-through TTL cache with single-flight deduplication.

A verified §3.3 query costs one round trip to the subject plus one to
each verified monitor; at serving rates that protocol work — not the HTTP
layer — is the bottleneck.  The cache absorbs it two ways:

* **TTL**: a fresh entry under its time-to-live is returned without
  touching the overlay.  Availability is a slowly-moving long-run
  fraction, so short TTLs (seconds) lose almost no accuracy while
  collapsing hot-key load to one overlay query per TTL window.
* **Single-flight**: concurrent misses on the same key share ONE loader
  call; the herd awaits the same future instead of issuing N identical
  protocol exchanges (the thundering-herd pattern every read-through
  front end needs — see PAPERS.md's query-system references).

The clock is injectable and defaults to the running loop's clock, so on
the in-memory fabric (virtual clock) expiry is fully deterministic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["CacheStats", "TtlCache", "loop_time"]


def loop_time() -> float:
    """The running loop's clock: the serving tier's default clock."""
    return asyncio.get_running_loop().time()


@dataclass
class CacheStats:
    """Counters for one cache instance (all monotonic)."""

    hits: int = 0
    misses: int = 0
    #: Calls that awaited another caller's in-flight load.
    coalesced: int = 0
    #: Entries evicted because the cache was at capacity.
    evictions: int = 0
    #: Entries that had expired when looked up.
    expirations: int = 0

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses + self.coalesced
        if lookups == 0:
            return 0.0
        # Coalesced calls did not hit the overlay either; they count as
        # cache-absorbed for the ratio consumers care about (protocol
        # queries avoided per lookup).
        return (self.hits + self.coalesced) / lookups


class TtlCache:
    """Async read-through cache; ``get(key, loader)`` is the whole API."""

    def __init__(
        self,
        *,
        ttl: float = 5.0,
        max_entries: int = 4096,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.ttl = ttl
        self.max_entries = max_entries
        self._now = clock if clock is not None else loop_time
        #: key -> (value, expires_at)
        self._entries: Dict[Hashable, Tuple[Any, float]] = {}
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    async def get(
        self,
        key: Hashable,
        loader: Callable[[], Awaitable[Any]],
    ) -> Any:
        """Return the cached value for *key*, loading it on a miss.

        Concurrent callers missing on the same key share one *loader*
        call.  A loader that raises propagates to every waiter and caches
        nothing — the next caller retries.
        """
        now = self._now()
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] > now:
                self.stats.hits += 1
                return entry[0]
            del self._entries[key]
            self.stats.expirations += 1
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.coalesced += 1
            return await asyncio.shield(inflight)
        self.stats.misses += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            value = await loader()
        except BaseException as exc:
            future.set_exception(exc)
            # The herd re-raises through the future; nobody new should
            # join a doomed flight.
            future.exception()  # mark retrieved: no "never retrieved" noise
            raise
        else:
            future.set_result(value)
            self._store(key, value)
            return value
        finally:
            del self._inflight[key]

    def _store(self, key: Hashable, value: Any) -> None:
        if self.ttl <= 0:
            return  # zero TTL = pass-through (still single-flighted)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            # Evict the entry closest to expiry (oldest data first).
            victim = min(
                self._entries, key=lambda k: self._entries[k][1]
            )
            del self._entries[victim]
            self.stats.evictions += 1
        self._entries[key] = (value, self._now() + self.ttl)
