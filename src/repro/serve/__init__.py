"""Online availability serving: an HTTP/JSON front end for AVMON overlays.

AVMON's purpose is answering "how available is node X?" for consumers; the
batch experiments answer it offline.  This package serves it online: an
asyncio HTTP service (stdlib only) that fronts a running overlay through
:class:`~repro.apps.query.QueryClient`, with a read-through TTL cache,
token-bucket rate limiting, bounded-concurrency admission control, and
per-endpoint metrics.  It runs over both fabrics — real UDP against a
live overlay (``avmon serve``) and the in-memory virtual-clock fabric
(``MemoryOverlay``), so CI load tests never open a socket.

Import layout mirrors :mod:`repro.live`: symbols are lazily re-exported
so ``from repro.serve import AvailabilityService`` works without paying
for modules you don't touch.
"""

from __future__ import annotations

_EXPORTS = {
    "TtlCache": "cache",
    "CacheStats": "cache",
    "TokenBucket": "ratelimit",
    "RateLimiter": "ratelimit",
    "LatencyTracker": "metrics",
    "EndpointMetrics": "metrics",
    "ServeMetrics": "metrics",
    "OverlayBackend": "backend",
    "memory_backend": "backend",
    "DEFAULT_CLIENT_ID": "backend",
    "ServeConfig": "service",
    "AvailabilityService": "service",
    "result_json": "service",
    "handle_connection": "http",
    "serve_http": "http",
    "MemoryHttpClient": "http",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
