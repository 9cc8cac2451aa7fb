"""Online availability serving: an HTTP/JSON front end for AVMON overlays.

AVMON's purpose is answering "how available is node X?" for consumers; the
batch experiments answer it offline.  This package serves it online: an
asyncio HTTP service (stdlib only) that fronts a running overlay through
:class:`~repro.apps.query.QueryClient`, with a read-through TTL cache,
token-bucket rate limiting, bounded-concurrency admission control, and
per-endpoint metrics.  It runs over both fabrics — real UDP against a
live overlay (``avmon serve``) and the in-memory virtual-clock fabric
(``MemoryOverlay``), so CI load tests never open a socket.
"""
