"""Per-endpoint serving metrics: counters and latency percentiles.

Backed by the shared :mod:`repro.obs` registry: every counter here is a
``repro.obs`` :class:`~repro.obs.registry.Counter` (kind *deterministic*)
and every latency tracker a :class:`~repro.obs.registry.Histogram` (kind
*wall*), so the serving tier reports through the same surface as the
simulator, the fleet and the store daemon — and ``/metrics`` can also be
rendered as Prometheus text straight from the registry.

The JSON shape of ``to_dict()`` (what ``/metrics`` returns) is unchanged
from the pre-registry implementation.  Counters are deterministic given a
deterministic request schedule; latency percentiles come from a bounded
ring of recent samples measured on an injectable clock — the virtual
clock on the memory fabric.  That is what lets CI assert byte-identical
``/metrics`` counters across two identical seeded runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.registry import WALL, Histogram, MetricsRegistry

__all__ = ["LatencyTracker", "EndpointMetrics", "ServeMetrics"]


class LatencyTracker(Histogram):
    """Latency percentiles over a bounded window of recent samples.

    A wall-kind obs histogram that renders its summary in milliseconds —
    the serving tier's historical ``/metrics`` unit.
    """

    def __init__(
        self,
        window: int = 2048,
        *,
        name: str = "serve.latency_seconds",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        super().__init__(name, kind=WALL, window=window)
        if registry is not None:
            registry.register(self)

    def summary(self) -> Dict[str, float]:
        return {
            "p50_ms": round(self.percentile(50) * 1000.0, 3),
            "p95_ms": round(self.percentile(95) * 1000.0, 3),
            "p99_ms": round(self.percentile(99) * 1000.0, 3),
            "mean_ms": round(
                (self.total / self.count) * 1000.0 if self.count else 0.0, 3
            ),
        }


class EndpointMetrics:
    """Counters for one endpoint (one instance per route)."""

    def __init__(
        self,
        route: str = "",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        base = f"serve.endpoint.{route}" if route else "serve.endpoint"
        self._requests = registry.counter(f"{base}.requests")
        self._ok = registry.counter(f"{base}.ok")
        self._client_errors = registry.counter(f"{base}.client_errors")  # 4xx
        self._server_errors = registry.counter(f"{base}.server_errors")  # 5xx
        #: 429 subset of client_errors.
        self._rate_limited = registry.counter(f"{base}.rate_limited")
        self.latency = LatencyTracker(
            name=f"{base}.latency_seconds", registry=registry
        )

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def ok(self) -> int:
        return self._ok.value

    @property
    def client_errors(self) -> int:
        return self._client_errors.value

    @property
    def server_errors(self) -> int:
        return self._server_errors.value

    @property
    def rate_limited(self) -> int:
        return self._rate_limited.value

    def record(self, status: int, seconds: float) -> None:
        self._requests.inc()
        if status >= 500:
            self._server_errors.inc()
        elif status == 429:
            self._rate_limited.inc()
            self._client_errors.inc()
        elif status >= 400:
            self._client_errors.inc()
        else:
            self._ok.inc()
        self.latency.observe(seconds)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "requests": self.requests,
            "ok": self.ok,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "rate_limited": self.rate_limited,
        }
        out.update(self.latency.summary())
        return out


class ServeMetrics:
    """The service's whole metrics surface (rendered by ``/metrics``)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: The obs registry everything below lives in; ``/metrics`` can
        #: render it as Prometheus text directly.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._endpoints: Dict[str, EndpointMetrics] = {}
        #: §3.3 verification outcomes across all served queries.
        self._monitors_verified = self.registry.counter(
            "serve.query.monitors_verified"
        )
        self._monitors_rejected = self.registry.counter(
            "serve.query.monitors_rejected"
        )
        #: Queries whose overlay deadline fired with answers missing.
        self._queries_timed_out = self.registry.counter(
            "serve.query.timed_out"
        )
        #: Requests rejected by admission control (concurrency bound).
        self._shed_overload = self.registry.counter("serve.shed_overload")

    # The four query counters read as plain ints (avbench and tests do).
    @property
    def monitors_verified(self) -> int:
        return self._monitors_verified.value

    @property
    def monitors_rejected(self) -> int:
        return self._monitors_rejected.value

    @property
    def queries_timed_out(self) -> int:
        return self._queries_timed_out.value

    @property
    def shed_overload(self) -> int:
        return self._shed_overload.value

    def endpoint(self, route: str) -> EndpointMetrics:
        metrics = self._endpoints.get(route)
        if metrics is None:
            metrics = self._endpoints[route] = EndpointMetrics(
                route, self.registry
            )
        return metrics

    def record_query_result(self, result) -> None:
        """Fold one QueryResult's verification outcome into the counters."""
        self._monitors_verified.inc(len(result.verified_monitors))
        self._monitors_rejected.inc(len(result.rejected_monitors))
        if result.timed_out:
            self._queries_timed_out.inc()

    def record_shed(self) -> None:
        """One request rejected by admission control."""
        self._shed_overload.inc()

    def totals(self) -> Dict[str, int]:
        return {
            "requests": sum(m.requests for m in self._endpoints.values()),
            "ok": sum(m.ok for m in self._endpoints.values()),
            "client_errors": sum(
                m.client_errors for m in self._endpoints.values()
            ),
            "server_errors": sum(
                m.server_errors for m in self._endpoints.values()
            ),
            "rate_limited": sum(
                m.rate_limited for m in self._endpoints.values()
            ),
        }

    def to_dict(self, *, cache_stats: Optional[Dict[str, int]] = None) -> Dict:
        body: Dict[str, object] = {
            "totals": self.totals(),
            "endpoints": {
                route: self._endpoints[route].to_dict()
                for route in sorted(self._endpoints)
            },
            "query": {
                "monitors_verified": self.monitors_verified,
                "monitors_rejected": self.monitors_rejected,
                "timed_out": self.queries_timed_out,
            },
            "shed_overload": self.shed_overload,
        }
        if cache_stats is not None:
            body["cache"] = cache_stats
        return body

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the whole serving registry."""
        return self.registry.render_prometheus()
