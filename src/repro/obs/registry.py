"""Process-wide metrics registry with a deterministic / wall-clock split.

The registry is the single sink every subsystem (simulator engine, fleet
orchestrator, store daemon, serving surface) emits through.  Metrics carry
a *kind*:

- ``DETERMINISTIC`` — counts that are a pure function of the seeded run
  (events processed, hash evaluations, retries, cache hits).  Snapshots of
  this slice are byte-equal across identical seeded runs and are gated in
  CI exactly like avbench's exact counts.
- ``WALL`` — anything measured against a real clock (latencies, scan
  phase durations).  Structurally excluded from deterministic snapshots
  so timing noise can never leak into the compared bytes.

Three metric shapes cover the repo's needs: :class:`Counter` (monotonic
int), :class:`Gauge` (set value *or* a zero-cost callback evaluated only
at snapshot time), and :class:`Histogram` (bounded sliding window with
nearest-rank percentiles — the generalisation of the serving tier's
latency tracker).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "DETERMINISTIC",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

DETERMINISTIC = "deterministic"
WALL = "wall"

_KINDS = (DETERMINISTIC, WALL)


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "kind", "value")

    def __init__(self, name: str, kind: str = DETERMINISTIC) -> None:
        self.name = name
        self.kind = kind
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.kind!r}, value={self.value})"


class Gauge:
    """Point-in-time value: either explicitly ``set()`` or a callback.

    Callback gauges are the zero-cost hook shape: the observed object
    pays nothing on its hot path; the function runs only when a snapshot
    is taken.
    """

    __slots__ = ("name", "kind", "_value", "_fn")

    def __init__(
        self,
        name: str,
        kind: str = DETERMINISTIC,
        fn: Optional[Callable[[], Union[int, float]]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self._value: Union[int, float] = 0
        self._fn = fn

    def set(self, value: Union[int, float]) -> None:
        self._fn = None
        self._value = value

    def set_function(self, fn: Callable[[], Union[int, float]]) -> None:
        self._fn = fn

    @property
    def value(self) -> Union[int, float]:
        if self._fn is not None:
            return self._fn()
        return self._value

    def snapshot_value(self) -> Union[int, float]:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.kind!r})"


class Histogram:
    """Bounded sliding-window histogram with nearest-rank percentiles.

    Keeps the most recent ``window`` observations in a ring plus running
    ``count``/``total`` over the full stream.  ``percentile`` sorts the
    window on demand — observation stays O(1).
    """

    __slots__ = ("name", "kind", "window", "count", "total", "_samples", "_next")

    def __init__(self, name: str, kind: str = WALL, window: int = 2048) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.kind = kind
        self.window = window
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._samples) < self.window:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self.window

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * q // 100))
        return ordered[int(rank) - 1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "p50": round(self.percentile(50), 6),
            "p95": round(self.percentile(95), 6),
            "p99": round(self.percentile(99), 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, {self.kind!r}, count={self.count})"


Metric = Union[Counter, Gauge, Histogram]

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "avmon_" + sanitized


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    Thread-safe for creation (fleet heartbeat pumps run on threads);
    individual increments are plain int ops under the GIL.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation -------------------------------------------------------
    def _get_or_create(self, name, kind, cls, factory):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
                return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered with kind {metric.kind!r}"
            )
        return metric

    def counter(self, name: str, kind: str = DETERMINISTIC) -> Counter:
        return self._get_or_create(name, kind, Counter, lambda: Counter(name, kind))

    def gauge(
        self,
        name: str,
        kind: str = DETERMINISTIC,
        fn: Optional[Callable[[], Union[int, float]]] = None,
    ) -> Gauge:
        gauge = self._get_or_create(name, kind, Gauge, lambda: Gauge(name, kind))
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(self, name: str, kind: str = WALL, window: int = 2048) -> Histogram:
        return self._get_or_create(
            name, kind, Histogram, lambda: Histogram(name, kind, window)
        )

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally built metric (e.g. a latency tracker)."""
        if metric.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {metric.kind!r}")
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
        if existing is not metric:
            raise ValueError(f"metric {metric.name!r} already registered")
        return metric

    # -- introspection --------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    # -- snapshots ------------------------------------------------------
    def snapshot(self, kind: Optional[str] = None) -> Dict[str, object]:
        """``{name: value}`` sorted by name, optionally filtered by kind."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if kind is not None and metric.kind != kind:
                continue
            out[name] = metric.snapshot_value()
        return out

    def deterministic_snapshot(self) -> Dict[str, object]:
        return self.snapshot(DETERMINISTIC)

    def wall_snapshot(self) -> Dict[str, object]:
        return self.snapshot(WALL)

    def deterministic_json(self) -> str:
        """Canonical JSON of the deterministic slice — the CI-gated bytes."""
        return json.dumps(
            self.deterministic_snapshot(), sort_keys=True, separators=(",", ":")
        )

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            "deterministic": self.deterministic_snapshot(),
            "wall": self.wall_snapshot(),
        }

    # -- prometheus -----------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric in the registry."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = _prom_name(name)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {prom} counter")
                lines.append(f'{prom}{{kind="{metric.kind}"}} {metric.value}')
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f'{prom}{{kind="{metric.kind}"}} {metric.value}')
            else:
                lines.append(f"# TYPE {prom} summary")
                for q in (50, 95, 99):
                    lines.append(
                        f'{prom}{{kind="{metric.kind}",quantile="0.{q}"}} '
                        f"{metric.percentile(q)}"
                    )
                lines.append(f"{prom}_sum {metric.total}")
                lines.append(f"{prom}_count {metric.count}")
        return "\n".join(lines) + "\n"


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
