"""Result cache shared across figure computations.

Figures 3–10 all consume the same base runs (three churn models × the N
sweep); the cache keys runs by their full configuration so each distinct
simulation executes once per process, whether it is requested by the fig3
spec or the fig9 spec.

The in-memory layer holds flat
:class:`~repro.experiments.summary.SimulationSummary` objects
(:meth:`SimulationCache.get_summary`), which are what the figures and
parallel sweeps consume — :meth:`SimulationCache.prime` fans missing
runs out over a process pool through the orchestrator.

A second, cross-process layer is optional: construct the cache with a
:class:`~repro.experiments.store.SummaryStore` and summaries are read from
and written to a content-addressed directory of JSON files, so a second
process (or a re-run after a crash) resumes instead of recomputing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from .backends import ExecutionBackend
from .orchestrator import ProgressFn, run_configs
from .runner import SimulationConfig, run_simulation
from .store import SummaryStore, config_key
from .summary import SimulationSummary, summarize

__all__ = ["SimulationCache", "default_cache"]


class SimulationCache:
    """Memoises :func:`run_simulation` on a structural config key.

    With *store*, summary lookups fall through to the disk store before
    simulating, and freshly computed summaries are written back — the
    cross-process resume layer the CLI exposes as ``--cache-dir``.
    """

    def __init__(
        self,
        store: Optional[SummaryStore] = None,
        *,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> None:
        self._summaries: Dict[Tuple, SimulationSummary] = {}
        self._store = store
        # Default execution backend for prime(); every figure runner that
        # fans out through this cache inherits it without new plumbing.
        self._backend = backend

    def get_summary(self, config: SimulationConfig) -> SimulationSummary:
        """The flat summary for *config*, running the simulation if needed.

        Lookup order: in-memory summaries, the disk store (when
        configured), then a serial in-process run, whose summary is
        written back to the store.
        """
        key = config_key(config)
        summary = self._summaries.get(key)
        if summary is not None:
            return summary
        if self._store is not None:
            summary = self._store.load(key)
            if summary is not None:
                self._summaries[key] = summary
                return summary
        summary = summarize(run_simulation(config))
        self._summaries[key] = summary
        if self._store is not None:
            self._store.save(key, summary)
        return summary

    def prime(
        self,
        configs: Iterable[SimulationConfig],
        *,
        jobs: int = 1,
        progress: Optional[ProgressFn] = None,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> int:
        """Ensure summaries exist for every config; returns the number
        actually simulated (store hits and memory hits count as zero).

        All missing cells execute through the orchestrator — serially
        in-process for ``jobs <= 1``, over a multiprocessing pool
        otherwise — and only flat summaries are retained either way.
        Priming never pins full :class:`SimulationResult` objects: they
        own the live cluster and network graph, and keeping one per cell
        made ``avmon run all`` grow without bound.
        """
        missing: List[SimulationConfig] = []
        seen = set()
        for config in configs:
            key = config_key(config)
            if key in self._summaries or key in seen:
                continue
            seen.add(key)
            missing.append(config)
        if not missing:
            return 0
        hits_before = self._store.hits if self._store is not None else 0
        summaries = run_configs(
            missing,
            jobs=jobs,
            progress=progress,
            store=self._store,
            backend=backend if backend is not None else self._backend,
        )
        for config, summary in zip(missing, summaries):
            self._summaries[config_key(config)] = summary
        resumed = (self._store.hits - hits_before) if self._store is not None else 0
        return len(missing) - resumed

    def summary_count(self) -> int:
        return len(self._summaries)

    def clear(self) -> None:
        """Drop the in-memory layer (the disk store is left untouched)."""
        self._summaries.clear()


_DEFAULT: Optional[SimulationCache] = None


def default_cache() -> SimulationCache:
    """Process-wide cache used when callers do not supply one."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SimulationCache()
    return _DEFAULT
