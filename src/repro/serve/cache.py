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
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["CacheStats", "TtlCache"]


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

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_ratio(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        # Coalesced calls did not hit the overlay either; they count as
        # cache-absorbed for the ratio consumers care about (protocol
        # queries avoided per lookup).
        return (self.hits + self.coalesced) / lookups


@dataclass
class _Entry:
    value: Any
    expires_at: float
    field_order: int = field(default=0, compare=False)


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
        self._clock = clock
        self._entries: Dict[Hashable, _Entry] = {}
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        self.stats = CacheStats()

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    def __len__(self) -> int:
        return len(self._entries)

    async def get(
        self,
        key: Hashable,
        loader: Callable[[], Awaitable[Any]],
        *,
        ttl: Optional[float] = None,
    ) -> Any:
        """Return the cached value for *key*, loading it on a miss.

        Concurrent callers missing on the same key share one *loader*
        call.  A loader that raises propagates to every waiter and caches
        nothing — the next caller retries.
        """
        now = self._now()
        entry = self._entries.get(key)
        if entry is not None:
            if entry.expires_at > now:
                self.stats.hits += 1
                return entry.value
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
            self._store(key, value, self.ttl if ttl is None else ttl)
            return value
        finally:
            del self._inflight[key]

    def _store(self, key: Hashable, value: Any, ttl: float) -> None:
        if ttl <= 0:
            return  # zero TTL = pass-through (still single-flighted)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            # Evict the entry closest to expiry (oldest data first).
            victim = min(
                self._entries, key=lambda k: self._entries[k].expires_at
            )
            del self._entries[victim]
            self.stats.evictions += 1
        self._entries[key] = _Entry(value=value, expires_at=self._now() + ttl)

    def clear(self) -> None:
        self._entries.clear()
