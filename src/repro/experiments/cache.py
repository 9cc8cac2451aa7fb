"""Result cache shared across figure computations.

Figures 3–10 all consume the same base runs (three churn models × the N
sweep); the cache keys runs by their full configuration so each distinct
simulation executes once per process, whether it is requested by the fig3
spec, the fig9 spec or a benchmark.

Two layers are cached in memory:

* full :class:`SimulationResult` objects (:meth:`SimulationCache.get`) for
  callers that inspect the live cluster, and
* flat :class:`~repro.experiments.summary.SimulationSummary` objects
  (:meth:`SimulationCache.get_summary`), which are what the figures and
  parallel sweeps consume — :meth:`SimulationCache.prime` fans missing
  runs out over a process pool through the orchestrator.

A third, cross-process layer is optional: construct the cache with a
:class:`~repro.experiments.store.SummaryStore` and summaries are read from
and written to a content-addressed directory of JSON files, so a second
process (or a re-run after a crash) resumes instead of recomputing.  Full
results never reach the store — they own the live object graph and exist
only in the process that ran the simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from .backends import ExecutionBackend
from .orchestrator import ProgressFn, run_configs
from .runner import SimulationConfig, SimulationResult, run_simulation
from .store import SummaryStore, config_key, latency_key
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
        self._runs: Dict[Tuple, SimulationResult] = {}
        self._summaries: Dict[Tuple, SimulationSummary] = {}
        self._store = store
        # Default execution backend for prime(); every figure runner that
        # fans out through this cache inherits it without new plumbing.
        self._backend = backend

    #: Structural key for a pluggable latency model (public attributes
    #: only — see :func:`repro.experiments.store.latency_key`).
    _latency_key = staticmethod(latency_key)

    #: Structural identity of one run; the store's content address derives
    #: from this key (see :func:`repro.experiments.store.config_key`).
    key_of = staticmethod(config_key)

    @property
    def store(self) -> Optional[SummaryStore]:
        return self._store

    @property
    def backend(self) -> Union[None, str, ExecutionBackend]:
        return self._backend

    def get(self, config: SimulationConfig) -> SimulationResult:
        key = self.key_of(config)
        result = self._runs.get(key)
        if result is None:
            result = run_simulation(config)
            self._runs[key] = result
        return result

    def get_summary(self, config: SimulationConfig) -> SimulationSummary:
        """The flat summary for *config*, running the simulation if needed.

        Lookup order: in-memory summaries, the disk store (when
        configured), then a serial in-process run.  A run executed here is
        kept as a full result too, so callers mixing summary and
        full-result access never simulate twice; its summary is written
        back to the store.
        """
        key = self.key_of(config)
        summary = self._summaries.get(key)
        if summary is not None:
            return summary
        if self._store is not None:
            summary = self._store.load(key)
            if summary is not None:
                self._summaries[key] = summary
                return summary
        summary = summarize(self.get(config))
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
            key = self.key_of(config)
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
            self._summaries[self.key_of(config)] = summary
        resumed = (self._store.hits - hits_before) if self._store is not None else 0
        return len(missing) - resumed

    def __len__(self) -> int:
        return len(self._runs)

    def summary_count(self) -> int:
        return len(self._summaries)

    def clear(self) -> None:
        """Drop the in-memory layers (the disk store is left untouched)."""
        self._runs.clear()
        self._summaries.clear()


_DEFAULT: Optional[SimulationCache] = None


def default_cache() -> SimulationCache:
    """Process-wide cache used when callers do not supply one."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SimulationCache()
    return _DEFAULT
