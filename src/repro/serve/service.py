"""The availability service: routes, cache, limiter, admission, metrics.

:class:`AvailabilityService` is the fabric-agnostic core of the serving
surface: it maps ``(method, target, body, client)`` to ``(status, JSON)``
and owns everything between the HTTP layer and the overlay backend —

* a read-through TTL cache keyed by ``(kind, target, l)`` with
  single-flight deduplication (:mod:`repro.serve.cache`);
* a two-layer token-bucket rate limiter returning 429 + ``Retry-After``
  (:mod:`repro.serve.ratelimit`);
* bounded-concurrency admission control: beyond ``max_concurrency``
  in-flight overlay queries, requests are shed with 429 (``overloaded``)
  rather than queued — overload must surface as backpressure, never as
  5xx or unbounded latency;
* per-route counters and latency percentiles in the obs registry
  (:mod:`repro.serve.metrics`), rendered by ``GET /metrics`` and
  projected onto the control plane as
  :class:`~repro.live.control.ServeStatusReply`.

The HTTP layer (:mod:`repro.serve.http`) stays protocol-dumb; everything
here is plain async Python, so the same service instance serves real
sockets and the in-memory test client identically.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..apps.prediction import PeriodicPredictor, SaturatingCounterPredictor
from ..apps.query import QueryResult
from ..apps.replication import select_replicas_by_availability
from ..live.control import ServeStatusReply
from .backend import OverlayBackend
from .cache import TtlCache
from .metrics import ServeMetrics
from .ratelimit import RateLimiter

__all__ = ["UNMATCHED_ROUTE", "ServeConfig", "AvailabilityService", "result_json"]

#: The one metrics label every request that matches no route counts under
#: (routes all start with "/", so none can take it).
UNMATCHED_ROUTE = "unmatched"


@dataclass
class ServeConfig:
    """Operator knobs for one service instance (CLI flags map 1:1)."""

    #: Cache TTL for query results, seconds; 0 disables caching.
    cache_ttl: float = 2.0
    cache_entries: int = 4096
    #: Global token bucket: sustained requests/s and burst headroom.
    global_rate: float = 500.0
    global_burst: float = 1000.0
    #: Per-client bucket.
    client_rate: float = 100.0
    client_burst: float = 200.0
    #: In-flight overlay queries admitted before shedding.
    max_concurrency: int = 64
    #: Default and maximum ``l`` (monitors per verified query).
    default_l: int = 1
    max_l: int = 64
    #: Per-query overlay deadline, seconds.
    query_timeout: float = 2.0


class AvailabilityService:
    """Route table + policy layers over one :class:`OverlayBackend`."""

    def __init__(
        self,
        backend: OverlayBackend,
        config: Optional[ServeConfig] = None,
        *,
        clock=None,
        registry=None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else ServeConfig()
        self._clock = clock
        self.metrics = ServeMetrics(registry)
        self.cache = TtlCache(
            ttl=self.config.cache_ttl,
            max_entries=self.config.cache_entries,
            clock=clock,
        )
        # Cache effectiveness is deterministic for a deterministic request
        # schedule; expose it on the shared registry as callback gauges.
        stats = self.cache.stats
        self.metrics.registry.gauge("serve.cache.hits", fn=lambda: stats.hits)
        self.metrics.registry.gauge(
            "serve.cache.misses", fn=lambda: stats.misses
        )
        self.limiter = RateLimiter(
            global_rate=self.config.global_rate,
            global_burst=self.config.global_burst,
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
            clock=clock,
        )
        self._active = 0

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    # -- entry point -------------------------------------------------------

    async def handle(
        self,
        method: str,
        target: str,
        body: Optional[dict],
        client: str,
    ) -> Tuple[int, dict, Dict[str, str]]:
        """Serve one request; returns ``(status, json_body, headers)``.

        Never raises for request-shaped problems — those are 4xx bodies.
        An exception escaping here is a genuine service bug, which the
        HTTP layer surfaces as the 5xx it is.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)
        route, handler = self._route(method, path)
        started = self._now()
        headers: Dict[str, str] = {}
        status, payload = 500, {"error": "internal"}
        try:
            if handler is None:
                status, payload = 404, {"error": "no such endpoint"}
            elif route in ("/healthz", "/metrics"):
                status, payload = await handler(path, params, body)
            else:
                decision = self.limiter.check(client)
                if not decision.allowed:
                    status, payload = 429, {
                        "error": "rate_limited",
                        "limited_by": decision.limited_by,
                        "retry_after": round(decision.retry_after, 3),
                    }
                    headers["Retry-After"] = str(
                        max(1, int(decision.retry_after + 0.999))
                    )
                elif self._active >= self.config.max_concurrency:
                    self.metrics.record_shed()
                    status, payload = 429, {
                        "error": "overloaded",
                        "retry_after": round(self.config.query_timeout, 3),
                    }
                    headers["Retry-After"] = "1"
                else:
                    self._active += 1
                    try:
                        status, payload = await handler(path, params, body)
                    finally:
                        self._active -= 1
        finally:
            # The route label aggregates path parameters away and every
            # unmatched request shares UNMATCHED_ROUTE, so the metrics
            # cardinality is the route table's, not the clients'.
            self.metrics.record(route, status, self._now() - started)
        return status, payload, headers

    def _route(self, method: str, path: str):
        if method == "GET":
            if path == "/healthz":
                return "/healthz", self._healthz
            if path == "/metrics":
                return "/metrics", self._metrics
            if path == "/nodes":
                return "/nodes", self._nodes
            if path.startswith("/availability/"):
                return "/availability", self._availability
            if path.startswith("/monitors/"):
                return "/monitors", self._monitors
        elif method == "POST":
            if path == "/predict":
                return "/predict", self._predict
            if path == "/replicate":
                return "/replicate", self._replicate
        return UNMATCHED_ROUTE, None

    # -- parameter parsing -------------------------------------------------

    def _parse_l(self, params) -> int:
        raw = params.get("l", [str(self.config.default_l)])[-1]
        try:
            l = int(raw)
        except ValueError:
            raise _BadRequest(f"l must be an integer, got {raw!r}")
        if not 1 <= l <= self.config.max_l:
            raise _BadRequest(
                f"l must be in [1, {self.config.max_l}], got {l}"
            )
        return l

    @staticmethod
    def _parse_node(path: str) -> int:
        tail = path.rsplit("/", 1)[-1]
        try:
            node = int(tail)
        except ValueError:
            raise _BadRequest(f"node id must be an integer, got {tail!r}")
        if node < 0:
            raise _BadRequest(f"node id must be >= 0, got {node}")
        return node

    # -- the cached query path ---------------------------------------------

    async def _cached_query(self, kind: str, subject: int, l: int) -> dict:
        async def load() -> dict:
            result = await self.backend.query(
                subject,
                l=l,
                timeout=self.config.query_timeout,
                history=(kind == "availability"),
            )
            self.metrics.record_query_result(result)
            return result_json(result)

        return await self.cache.get((kind, subject, l), load)

    # -- endpoints ---------------------------------------------------------

    async def _healthz(self, path, params, body):
        return 200, {
            "status": "ok",
            "overlay_nodes": len(self.backend.nodes()),
            "in_flight": self._active,
        }

    async def _metrics(self, path, params, body):
        if params.get("format", [""])[-1] == "prometheus":
            return 200, self.metrics.registry.render_prometheus()
        return 200, self.metrics.to_dict(
            cache_stats=self.cache.stats.to_dict()
        )

    async def _nodes(self, path, params, body):
        return 200, {"nodes": sorted(self.backend.nodes())}

    async def _availability(self, path, params, body):
        try:
            subject = self._parse_node(path)
            l = self._parse_l(params)
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        return 200, await self._cached_query("availability", subject, l)

    async def _monitors(self, path, params, body):
        try:
            subject = self._parse_node(path)
            l = self._parse_l(params)
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        payload = await self._cached_query("monitors", subject, l)
        return 200, {
            key: payload[key]
            for key in (
                "subject",
                "verified_monitors",
                "rejected_monitors",
                "policy_satisfied",
                "timed_out",
            )
        }

    async def _predict(self, path, params, body):
        if not isinstance(body, dict):
            return 400, {"error": "JSON object body required"}
        predictor = body.get("predictor", "counter")
        samples = body.get("samples")
        if not isinstance(samples, list) or not samples:
            return 400, {"error": "samples must be a non-empty list"}
        try:
            if predictor == "counter":
                model = SaturatingCounterPredictor(
                    bits=int(body.get("bits", 2))
                )
                model.train([bool(s) for s in samples])
                return 200, {
                    "predictor": "counter",
                    "prediction_up": model.predict(),
                }
            if predictor == "periodic":
                model = PeriodicPredictor(
                    cycle=float(body.get("cycle", 86400.0)),
                    buckets=int(body.get("buckets", 24)),
                )
                model.train([(float(t), bool(u)) for t, u in samples])
                at = float(body.get("at", 0.0))
                return 200, {
                    "predictor": "periodic",
                    "at": at,
                    "probability_up": round(model.probability_up(at), 6),
                    "prediction_up": model.predict(at),
                }
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"bad predictor input: {exc}"}
        return 400, {
            "error": f"unknown predictor {predictor!r} "
            "(expected 'counter' or 'periodic')"
        }

    async def _replicate(self, path, params, body):
        if not isinstance(body, dict):
            return 400, {"error": "JSON object body required"}
        candidates = body.get("nodes")
        if candidates is None:
            candidates = sorted(self.backend.nodes())
        if not isinstance(candidates, list) or not candidates:
            return 400, {"error": "nodes must be a non-empty list"}
        if not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in candidates
        ):
            return 400, {"error": "nodes must be non-negative integers"}
        try:
            count = int(body.get("count", 3))
        except (TypeError, ValueError):
            return 400, {"error": "count must be an integer"}
        if count < 1:
            return 400, {"error": f"count must be >= 1, got {count}"}
        try:
            l = int(body.get("l", self.config.default_l))
        except (TypeError, ValueError):
            return 400, {"error": "l must be an integer"}
        if not 1 <= l <= self.config.max_l:
            return 400, {"error": f"l must be in [1, {self.config.max_l}]"}
        availability: Dict[int, float] = {}
        incomplete = []
        for subject in candidates:
            payload = await self._cached_query("availability", subject, l)
            availability[subject] = payload["availability"]
            if payload["timed_out"] or not payload["policy_satisfied"]:
                incomplete.append(subject)
        placement = select_replicas_by_availability(availability, count)
        return 200, {
            "replicas": list(placement.replicas),
            "placement_availability": round(placement.availability, 6),
            "policy": placement.policy,
            "availability": {
                str(node): round(availability[node], 6)
                for node in sorted(availability)
            },
            "incomplete": sorted(incomplete),
        }

    # -- control-plane projection ------------------------------------------

    def serve_status_reply(self, probe: int = 0) -> ServeStatusReply:
        totals = self.metrics.totals()
        return ServeStatusReply(
            probe=probe,
            requests=totals["requests"],
            ok=totals["ok"],
            client_errors=totals["client_errors"],
            server_errors=totals["server_errors"],
            rate_limited=totals["rate_limited"],
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            monitors_verified=self.metrics.monitors_verified,
            monitors_rejected=self.metrics.monitors_rejected,
            queries_timed_out=self.metrics.queries_timed_out,
        )


class _BadRequest(Exception):
    """Request-shaped problem; rendered as a 400 JSON body."""


def result_json(result: QueryResult) -> dict:
    """One QueryResult as the JSON shape every consumer shares (the
    ``/availability`` endpoint, ``avmon live query``, avbench)."""
    return {
        "subject": result.subject,
        "availability": round(result.availability, 6),
        "verified_monitors": sorted(result.verified_monitors),
        "rejected_monitors": sorted(result.rejected_monitors),
        "reports": {
            str(monitor): round(value, 6)
            for monitor, value in sorted(result.reports.items())
        },
        "complete": result.complete,
        "policy_satisfied": result.policy_satisfied,
        "monitors_queried": result.monitors_queried,
        "monitors_answered": result.monitors_answered,
        "timed_out": result.timed_out,
    }
