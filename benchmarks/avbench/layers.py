"""Per-layer self time from a ``cProfile`` run, bucketed by source module.

A function's *layer* comes from its source file (table below).  Code
with no layer of its own — C builtins (``heappush``, ``md5``, the json
scanner), dataclass-generated ``__init__``s (file ``<string>``) and the
non-asyncio standard library (``json``, ``random``, ``http.client``,
``multiprocessing``) — is *transparent*: its self time is charged to the
layers that called it, through the profiler's caller edges.  The split of
a transparent function's own self time between its direct callers is
exact (the profiler records it per edge); when a caller is itself
transparent the time follows that caller's overall split (gprof's
approximation).  Every profiled second lands in exactly one row, so the
rows sum to the profiled total.
"""

from __future__ import annotations

import pstats
import sysconfig
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["LAYERS", "layer_of", "self_seconds"]

HARNESS = "harness"
ASYNCIO = "stdlib.asyncio"
OTHER = "stdlib.other"

#: ``repro``-relative path prefix -> layer, first match wins.
_REPRO_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim.engine"),
    ("net/", "net.network"),
    ("core/condition.py", "core.condition"),
    ("core/hashing.py", "core.condition"),
    ("core/relation.py", "core.relation"),
    ("core/coarse_view.py", "core.coarse_view"),
    ("core/monitoring.py", "core.monitoring"),
    ("core/history.py", "core.monitoring"),
    ("core/", "core.node"),
    ("churn/", "churn"),
    ("metrics/", "metrics.collectors"),
    ("experiments/summary.py", "experiments.summary"),
    ("experiments/orchestrator.py", "experiments.orchestrator"),
    ("experiments/backends/", "experiments.backends"),
    ("experiments/store.py", "experiments.store"),
    ("experiments/store_backends.py", "experiments.store"),
    ("experiments/store_server.py", "experiments.store_server"),
    ("experiments/taskboard.py", "experiments.taskboard"),
    ("experiments/", "experiments.runner"),
    ("live/codec.py", "live.codec"),
    ("live/memory_transport.py", "live.memory_transport"),
    ("live/transport.py", "live.transport"),
    ("live/faults.py", "live.faults"),
    ("live/introducer.py", "live.introducer"),
    ("live/", "live.runtime"),
    ("apps/", "apps.query"),
    ("serve/http.py", "serve.http"),
    ("serve/service.py", "serve.service"),
    ("serve/cache.py", "serve.cache"),
    ("serve/ratelimit.py", "serve.ratelimit"),
    ("serve/backend.py", "serve.backend"),
    ("serve/metrics.py", "serve.metrics"),
    ("obs/", "obs"),
)

#: Every row a traced run reports, in budget order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in _REPRO_LAYERS)
) + (ASYNCIO, OTHER, HARNESS)

_STDLIB = sysconfig.get_paths()["stdlib"].replace("\\", "/")


def layer_of(filename: str) -> Optional[str]:
    """The layer owning *filename*, or None when it is transparent."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0 and "/site-packages/" not in path:
        relative = path[marker + len("/repro/"):]
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return OTHER  # repro modules outside the budget (registry, api)
    if "/avbench/" in path:
        return HARNESS
    if path.startswith(_STDLIB) and (
        "/asyncio/" in path or path.endswith("/selectors.py")
    ):
        return ASYNCIO
    return None


#: Socket reads: where a client blocks while the daemon thread works.
_SOCKET_READS = ("'recv_into'", "'recv'", "'readinto'")


def _is_wait(func: Tuple[str, int, str]) -> bool:
    filename, _, name = func
    return filename == "~" and any(read in name for read in _SOCKET_READS)


def self_seconds(profile, helpers: Iterable = ()) -> Dict[str, float]:
    """``{layer: self seconds}`` for one traced run; sums to the profiled
    total.

    *profile* is the measuring thread's wall-clock profile.  *helpers*
    are CPU-clock profiles of threads that worked while the measuring
    thread waited on them (the store daemon): their rows are added and
    the same number of seconds is taken out of the measuring thread's
    socket reads, so the total stays the measuring thread's wall.
    """
    main = pstats.Stats(profile).stats
    helper_stats = [pstats.Stats(helper).stats for helper in helpers]
    helper_total = sum(
        entry[2] for stats in helper_stats for entry in stats.values()
    )
    waited = sum(entry[2] for func, entry in main.items() if _is_wait(func))
    wait_scale = max(0.0, waited - helper_total) / waited if waited else 1.0

    rows = {layer: 0.0 for layer in LAYERS}
    _bucket(main, rows, wait_scale)
    for stats in helper_stats:
        _bucket(stats, rows, 1.0)
    return rows


def _bucket(stats: dict, rows: Dict[str, float], wait_scale: float) -> None:
    """Add one profile's self time to *rows*, transparent code resolved."""
    own: Dict[tuple, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        own[func] = tt * wait_scale if _is_wait(func) else tt

    # split[f]: how a transparent function's time divides between layers.
    split: Dict[tuple, Dict[str, float]] = {}
    transparent = [f for f in stats if layer_of(f[0]) is None]
    for _ in range(24):  # call chains through transparent code are short
        for func in transparent:
            callers = stats[func][4]
            weight = sum(edge[2] for edge in callers.values())
            if weight <= 0.0:
                # Self time below the clock's resolution: fall back to
                # call counts so the function still finds its callers.
                weight = float(sum(edge[0] for edge in callers.values()))
                edges = {c: float(e[0]) for c, e in callers.items()}
            else:
                edges = {c: e[2] for c, e in callers.items()}
            merged: Dict[str, float] = {}
            for caller, edge_weight in edges.items():
                if weight <= 0.0 or edge_weight <= 0.0:
                    continue
                layer = layer_of(caller[0])
                share = edge_weight / weight
                if layer is not None:
                    merged[layer] = merged.get(layer, 0.0) + share
                else:
                    for name, part in split.get(caller, {}).items():
                        merged[name] = merged.get(name, 0.0) + share * part
            split[func] = merged

    for func, seconds in own.items():
        layer = layer_of(func[0])
        if layer is not None:
            rows[layer] += seconds
            continue
        parts = split.get(func, {})
        resolved = sum(parts.values())
        for name, part in parts.items():
            rows[name] += seconds * part
        # Whatever no caller chain explains (profile roots, recursion
        # through transparent code only) stays visible as stdlib.other.
        rows[OTHER] += seconds * max(0.0, 1.0 - resolved)
