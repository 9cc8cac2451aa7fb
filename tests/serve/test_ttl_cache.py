"""Unit tests: TTL cache semantics — expiry, single-flight, eviction."""

from __future__ import annotations

import asyncio

import pytest

from repro.live.memory_transport import run_virtual
from repro.serve.cache import TtlCache


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_hit_within_ttl_and_expiry_after():
    async def scenario():
        clock = ManualClock()
        cache = TtlCache(ttl=5.0, clock=clock)
        loads = []

        async def loader():
            loads.append(clock.now)
            return f"value@{clock.now}"

        assert await cache.get("k", loader) == "value@0.0"
        clock.now = 4.9
        assert await cache.get("k", loader) == "value@0.0"  # still fresh
        clock.now = 5.1
        assert await cache.get("k", loader) == "value@5.1"  # expired, reloaded
        assert loads == [0.0, 5.1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.expirations == 1
        return True

    assert asyncio.run(scenario())


def test_single_flight_coalesces_concurrent_misses():
    async def scenario():
        cache = TtlCache(ttl=5.0)
        loads = 0
        gate = asyncio.Event()

        async def slow_loader():
            nonlocal loads
            loads += 1
            await gate.wait()
            return "loaded"

        tasks = [
            asyncio.ensure_future(cache.get("k", slow_loader))
            for _ in range(10)
        ]
        await asyncio.sleep(0)  # let every task reach the cache
        gate.set()
        results = await asyncio.gather(*tasks)
        assert results == ["loaded"] * 10
        assert loads == 1
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 9
        assert cache.stats.hit_ratio == pytest.approx(0.9)
        return True

    assert asyncio.run(scenario())


def test_loader_failure_propagates_to_herd_and_caches_nothing():
    async def scenario():
        cache = TtlCache(ttl=5.0)
        gate = asyncio.Event()
        attempts = 0

        async def failing_loader():
            nonlocal attempts
            attempts += 1
            await gate.wait()
            raise RuntimeError("overlay down")

        tasks = [
            asyncio.ensure_future(cache.get("k", failing_loader))
            for _ in range(3)
        ]
        await asyncio.sleep(0)
        gate.set()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(r, RuntimeError) for r in results)
        assert attempts == 1

        async def good_loader():
            return "recovered"

        # Nothing was cached: the next call loads fresh.
        assert await cache.get("k", good_loader) == "recovered"
        return True

    assert asyncio.run(scenario())


def test_eviction_at_capacity_drops_oldest_expiry():
    async def scenario():
        clock = ManualClock()
        cache = TtlCache(ttl=10.0, max_entries=2, clock=clock)

        async def make(value):
            async def loader():
                return value

            return loader

        await cache.get("a", await make(1))
        clock.now = 1.0
        await cache.get("b", await make(2))
        clock.now = 2.0
        await cache.get("c", await make(3))  # evicts "a" (oldest expiry)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert await cache.get("b", await make(99)) == 2  # still cached
        assert await cache.get("a", await make(42)) == 42  # was evicted
        return True

    assert asyncio.run(scenario())


def test_zero_ttl_is_passthrough_but_still_single_flights():
    async def scenario():
        cache = TtlCache(ttl=0.0)
        loads = 0

        async def loader():
            nonlocal loads
            loads += 1
            return loads

        assert await cache.get("k", loader) == 1
        assert await cache.get("k", loader) == 2  # nothing was stored
        assert len(cache) == 0
        return True

    assert asyncio.run(scenario())


def test_invalid_parameters():
    with pytest.raises(ValueError):
        TtlCache(ttl=-1.0)
    with pytest.raises(ValueError):
        TtlCache(max_entries=0)


def test_cache_on_virtual_clock():
    """The default clock is the loop clock — virtual under run_virtual."""

    async def scenario():
        cache = TtlCache(ttl=2.0)
        loads = 0

        async def loader():
            nonlocal loads
            loads += 1
            return loads

        assert await cache.get("k", loader) == 1
        await asyncio.sleep(1.0)  # virtual: instant in wall time
        assert await cache.get("k", loader) == 1
        await asyncio.sleep(1.5)
        assert await cache.get("k", loader) == 2  # TTL elapsed virtually
        return True

    assert run_virtual(scenario())
