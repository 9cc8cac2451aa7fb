"""Per-endpoint serving metrics, recorded straight into the obs registry.

Every route gets five deterministic :class:`~repro.obs.registry.Counter`
series (``serve.endpoint.<route>.requests``, ``.ok``, ``.client_errors``,
``.server_errors``, ``.rate_limited``) and one wall-kind latency
:class:`~repro.obs.registry.Histogram` (``.latency_seconds``), created on
the route's first request.  ``/metrics`` renders them as JSON (latency
summaries in milliseconds, the serving tier's historical unit) or, via
``registry.render_prometheus()``, as Prometheus text.

Counters are deterministic given a deterministic request schedule;
latencies are measured on an injectable clock — the virtual clock on the
memory fabric — which is what lets CI assert byte-identical ``/metrics``
across two identical seeded runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.registry import MetricsRegistry

__all__ = ["ServeMetrics"]

#: Per-route outcome counters, in ``/metrics`` key order.
OUTCOMES = ("requests", "ok", "client_errors", "server_errors", "rate_limited")


class ServeMetrics:
    """The service's whole metrics surface (rendered by ``/metrics``)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: The obs registry every series below lives in.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: route -> its five outcome counters (OUTCOMES order) + latency.
        self._routes: Dict[str, tuple] = {}
        counter = self.registry.counter
        #: §3.3 verification outcomes across all served queries.
        self._monitors_verified = counter("serve.query.monitors_verified")
        self._monitors_rejected = counter("serve.query.monitors_rejected")
        #: Queries whose overlay deadline fired with answers missing.
        self._queries_timed_out = counter("serve.query.timed_out")
        #: Requests rejected by admission control (concurrency bound).
        self._shed_overload = counter("serve.shed_overload")

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

    def record(self, route: str, status: int, seconds: float) -> None:
        """One served request: its outcome counters and its latency."""
        series = self._routes.get(route)
        if series is None:
            base = f"serve.endpoint.{route}"
            series = self._routes[route] = (
                *(self.registry.counter(f"{base}.{name}") for name in OUTCOMES),
                self.registry.histogram(f"{base}.latency_seconds"),
            )
        requests, ok, client_errors, server_errors, rate_limited, latency = series
        requests.inc()
        if status >= 500:
            server_errors.inc()
        elif status >= 400:
            client_errors.inc()
            if status == 429:
                rate_limited.inc()
        else:
            ok.inc()
        latency.observe(seconds)

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
            name: sum(series[index].value for series in self._routes.values())
            for index, name in enumerate(OUTCOMES)
        }

    @staticmethod
    def _endpoint(series: tuple) -> Dict[str, object]:
        *counters, latency = series
        out: Dict[str, object] = {
            name: counter.value for name, counter in zip(OUTCOMES, counters)
        }
        for q in (50, 95, 99):
            out[f"p{q}_ms"] = round(latency.percentile(q) * 1000.0, 3)
        out["mean_ms"] = round(latency.mean * 1000.0, 3)
        return out

    def to_dict(self, *, cache_stats: Optional[Dict[str, int]] = None) -> Dict:
        body: Dict[str, object] = {
            "totals": self.totals(),
            "endpoints": {
                route: self._endpoint(self._routes[route])
                for route in sorted(self._routes)
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
