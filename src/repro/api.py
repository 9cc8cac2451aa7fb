"""Declarative scenario API: describe an experiment, run it anywhere.

A :class:`Scenario` names every moving part of a simulation by its
component-registry key (churn model, latency model, trace generator) plus
plain scalar parameters, and is therefore fully serialisable — it round
trips through :meth:`Scenario.to_dict` / JSON untouched, can live in a
config file, travel to a worker process, or be built programmatically::

    from repro.api import Scenario, run, sweep

    summary = run(Scenario(model="SYNTH", n=100, scale="test"))
    print(summary.average_discovery_time())

    results = sweep(
        Scenario(model="SYNTH", scale="test"),
        grid={"n": [60, 120, 240]},
        seeds=3,
        jobs=4,                      # multiprocessing fan-out
    )
    for (n,), group in results.group_by("n").items():
        print(n, group.mean(lambda s: s.average_discovery_time()))

:func:`sweep` expands a parameter grid × seed replications into cells,
executes them through the parallel orchestrator (deterministically: the
same sweep yields byte-identical results at any job count) and returns a
:class:`ResultSet` with grouping/aggregation helpers.

The legacy imperative path — build a
:class:`~repro.experiments.runner.SimulationConfig` by hand and call
:func:`~repro.experiments.runner.run_simulation` — remains fully
supported; :meth:`Scenario.to_config` is the bridge between the two.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .core.config import AvmonConfig
from .experiments.backends import ExecutionBackend
from .experiments.orchestrator import ProgressFn, run_configs
from .experiments.runner import SimulationConfig, run_simulation
from .experiments.scenarios import SCALES, scale_window, trace_for
from .experiments.store import SummaryStore
from .experiments.summary import SimulationSummary
from .metrics import stats
from .registry import canonical_name, create, resolve

__all__ = ["Scenario", "ResultSet", "SweepResult", "run", "sweep", "expand_grid"]

#: Trace-replay model keys whose trace generator defaults to the model name.
_TRACE_MODELS = ("TRACE", "PL", "OV")

#: A metric is a callable on a summary or the name of a zero-arg accessor.
Metric = Union[str, Callable[[SimulationSummary], float]]


@dataclass
class Scenario:
    """A fully declarative, serialisable experiment specification.

    Components are named by registry key (see :mod:`repro.registry`):
    ``model`` selects a ``"churn"`` component, ``latency`` a ``"latency"``
    component, and — for trace-replay models — ``trace_generator`` a
    ``"trace"`` component.  Everything else is a plain scalar, so
    ``Scenario(**json.loads(text))`` reconstructs the exact experiment.
    """

    #: Churn component key: STAT, SYNTH, SYNTH-BD(2), TRACE, PL, OV, or
    #: anything registered under the ``"churn"`` kind.
    model: str = "STAT"
    #: Stable system size; None -> 200 (synthetic) or derived from the
    #: generated trace (trace models), matching the paper's setups.
    n: Optional[int] = None
    #: Named parameter scale (paper/bench/test) supplying warmup/duration.
    scale: str = "bench"
    seed: int = 1
    #: Explicit timing overrides; None -> derived from *scale*.
    duration: Optional[float] = None
    warmup: Optional[float] = None
    control_fraction: float = 0.1
    churn_per_hour: float = 0.2
    #: None -> paper default scaled so total births match the paper's runs.
    birth_death_per_day: Optional[float] = None
    overreport_fraction: float = 0.0
    #: Latency component key plus its constructor parameters.
    latency: str = "UNIFORM"
    latency_params: Dict[str, float] = field(default_factory=dict)
    #: Trace generator key (trace models only); None -> the model key.
    trace_generator: Optional[str] = None
    trace_seed: int = 7
    #: Extra keyword arguments for the trace generator (n, duration, ...).
    trace_params: Dict[str, Any] = field(default_factory=dict)
    #: AvmonConfig overrides (k, cvs, enable_pr2, ...); {} -> paper defaults.
    avmon: Dict[str, Any] = field(default_factory=dict)
    #: Fault component key (registry kind ``fault``: NONE, LOSSY, WAN,
    #: FLAKY, ...); None -> a perfect network and the pre-fault cache key.
    fault: Optional[str] = None
    #: Overrides for the fault component's factory (e.g. ``loss=0.25``).
    fault_params: Dict[str, Any] = field(default_factory=dict)
    sample_interval: float = 120.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; expected one of {SCALES}"
            )
        if self.n is not None and self.n <= 1:
            raise ValueError(f"n must exceed 1, got {self.n}")

    # -- identity ----------------------------------------------------------

    @property
    def model_key(self) -> str:
        return canonical_name(self.model)

    @property
    def is_trace_model(self) -> bool:
        return self.model_key in _TRACE_MODELS or self.trace_generator is not None

    def with_params(self, **changes) -> "Scenario":
        """Functional update (the primitive :func:`sweep` expands with)."""
        return replace(self, **changes)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown Scenario fields: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # -- resolution --------------------------------------------------------

    def _resolve_latency(self) -> dict:
        """Latency kwargs for SimulationConfig.

        The experiments' default (UNIFORM) maps onto the config's native
        ``latency_low``/``latency_high`` floats so cache keys and legacy
        behaviour stay identical; any other registered model is built
        through the registry and plugged in as an object.
        """
        resolve("latency", self.latency)  # validate early, list alternatives
        if canonical_name(self.latency) == "UNIFORM":
            params = dict(self.latency_params)
            kwargs = {
                "latency_low": params.pop("low", 0.02),
                "latency_high": params.pop("high", 0.1),
            }
            if params:
                raise ValueError(
                    f"unknown UNIFORM latency_params: {', '.join(sorted(params))}; "
                    f"expected low, high"
                )
            return kwargs
        return {"latency": create("latency", self.latency, **self.latency_params)}

    def _resolve_fault(self):
        """Build the named fault plan (None for a perfect network).

        The plan's decision-stream seed defaults to the scenario seed, so
        seed replications vary the injected faults along with everything
        else; a null plan collapses to None so fault-free scenarios keep
        the exact pre-fault cache key.
        """
        if self.fault is None:
            if self.fault_params:
                raise ValueError(
                    "fault_params given without a fault component name"
                )
            return None
        params = dict(self.fault_params)
        params.setdefault("seed", self.seed)
        plan = create("fault", self.fault, **params)
        return None if plan.is_null() else plan

    def _resolve_trace(self):
        """Generate the replay trace named by ``trace_generator``."""
        generator = self.trace_generator or self.model_key
        if canonical_name(self.model_key) == "TRACE" and self.trace_generator is None:
            raise ValueError(
                "model 'TRACE' needs an explicit trace_generator registry key"
            )
        resolve("trace", generator)
        if (
            canonical_name(generator) in ("PL", "OV")
            and not self.trace_params
            and self.n is None
            and self.duration is None
            and self.warmup is None
        ):
            # The stock PL/OV setups: go through trace_for, whose process
            # cache lets sweep cells varying only the simulation seed share
            # one generated trace.
            return trace_for(canonical_name(generator), self.scale, seed=self.trace_seed)
        params = dict(self.trace_params)
        params.setdefault("seed", self.trace_seed)
        if canonical_name(generator) == "PL":
            params.setdefault("duration", self._resolved_duration())
            if self.n is not None:
                params.setdefault("n", self.n)
            elif self.scale != "paper":
                params.setdefault("n", 120 if self.scale == "bench" else 40)
        elif canonical_name(generator) == "OV":
            params.setdefault("duration", self._resolved_duration())
            if self.scale != "paper":
                n_stable = self.n if self.n is not None else (
                    130 if self.scale == "bench" else 40
                )
                params.setdefault("n_stable", n_stable)
                # Preserve the full generator's birth-rate-to-size ratio.
                params.setdefault(
                    "births_per_hour", (4.6 / 550.0) * params["n_stable"]
                )
        return create("trace", generator, **params)

    def _resolved_warmup(self) -> float:
        if self.warmup is not None:
            return self.warmup
        return scale_window(self.scale)[0]

    def _resolved_duration(self) -> float:
        if self.duration is not None:
            return self.duration
        warmup, window = scale_window(self.scale)
        return (self.warmup if self.warmup is not None else warmup) + window

    def to_config(self) -> SimulationConfig:
        """Materialise the spec into a runnable :class:`SimulationConfig`.

        Raises :class:`~repro.registry.UnknownComponentError` (listing the
        registered alternatives) when any named component is unknown.
        """
        resolve("churn", self.model)  # single error type for bad model keys
        warmup = self._resolved_warmup()
        duration = self._resolved_duration()
        if self.is_trace_model:
            trace = self._resolve_trace()
            duration = min(duration, trace.duration)
            if self.n is not None:
                n = self.n
            elif canonical_name(self.trace_generator or self.model_key) == "OV":
                n = max(2, round(len(trace) / 2))
            else:
                n = max(2, len(trace))
            avmon: Optional[AvmonConfig] = AvmonConfig.paper_defaults(
                n, **self.avmon
            )
        else:
            trace = None
            n = self.n if self.n is not None else 200
            avmon = AvmonConfig.paper_defaults(n, **self.avmon) if self.avmon else None
        birth_death = self.birth_death_per_day
        if birth_death is None:
            if self.model_key in ("SYNTH-BD", "SYNTH-BD2"):
                # Scale the birth rate so cumulative births over the run
                # match the paper's 48-hour experiments (~0.4*N in total).
                birth_death = 0.4 / (duration / 86400.0)
            else:
                birth_death = 0.2
        return SimulationConfig(
            model=self.model_key,
            n=n,
            duration=duration,
            warmup=warmup,
            control_fraction=self.control_fraction,
            seed=self.seed,
            avmon=avmon,
            churn_per_hour=self.churn_per_hour,
            birth_death_per_day=birth_death,
            trace=trace,
            overreport_fraction=self.overreport_fraction,
            sample_interval=self.sample_interval,
            label=self.label or self.model_key,
            fault=self._resolve_fault(),
            **self._resolve_latency(),
        )


def run(scenario: Scenario) -> SimulationSummary:
    """Execute one scenario and return its flat summary."""
    return run_simulation(scenario.to_config()).summary()


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: the scenario that ran and the summary it produced."""

    scenario: Scenario
    summary: SimulationSummary


def expand_grid(
    base: Scenario,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    seeds: Union[int, Sequence[int]] = 1,
) -> List[Scenario]:
    """Expand ``grid`` (field -> values) × seed replications into scenarios.

    Grid keys must be :class:`Scenario` field names; an integer ``seeds``
    means replications with deterministic seeds ``base.seed + i``, while a
    sequence fixes the seed list explicitly.  Expansion order (grid-major,
    seed-minor, insertion-ordered keys) is deterministic, so cell indices —
    and therefore results — are stable across runs and job counts.
    """
    grid = dict(grid or {})
    known = {f.name for f in fields(Scenario)}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(
            f"unknown sweep parameters: {', '.join(unknown)}; "
            f"grid keys must be Scenario fields"
        )
    if "seed" in grid:
        raise ValueError("vary seeds via the seeds= argument, not the grid")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {seeds}")
        seed_list = [base.seed + i for i in range(seeds)]
    else:
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("seeds sequence must be non-empty")
    cells = []
    keys = list(grid)
    for combo in itertools.product(*(grid[key] for key in keys)):
        params = dict(zip(keys, combo))
        for seed in seed_list:
            cells.append(base.with_params(seed=seed, **params))
    return cells


def sweep(
    base: Scenario,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    seeds: Union[int, Sequence[int]] = 1,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    store: Optional[SummaryStore] = None,
    backend: Union[None, str, ExecutionBackend] = None,
) -> "ResultSet":
    """Run a parameter grid × seed replications, optionally in parallel.

    Cells fan out over ``jobs`` worker processes through the orchestrator;
    results come back in deterministic cell order regardless of completion
    order, so ``jobs=1`` and ``jobs=N`` produce identical result sets.
    *backend* picks the execution strategy explicitly — an
    :class:`~repro.experiments.backends.ExecutionBackend` instance or a
    registered name (``"serial"``, ``"pool"``, ``"fleet"``); the default
    derives serial-vs-pool from ``jobs`` exactly as before the seam
    existed.  Every strategy funnels through the same cell function, so
    the result set is identical whichever executes it.

    With *store* (a :class:`~repro.experiments.store.SummaryStore`), cells
    already on disk are loaded instead of simulated and fresh results are
    persisted as they complete, making the sweep resumable across
    processes — an interrupted run re-invoked with the same arguments
    recomputes only the missing cells and returns an identical result set.
    """
    cells = expand_grid(base, grid, seeds=seeds)
    configs = [cell.to_config() for cell in cells]
    summaries = run_configs(
        configs, jobs=jobs, progress=progress, store=store, backend=backend
    )
    return ResultSet(
        [SweepResult(cell, summary) for cell, summary in zip(cells, summaries)]
    )


class ResultSet:
    """An ordered collection of sweep results with aggregation helpers."""

    def __init__(self, results: Optional[Iterable[SweepResult]] = None) -> None:
        self._results: List[SweepResult] = list(results or ())

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self):
        return iter(self._results)

    def __getitem__(self, index: int) -> SweepResult:
        return self._results[index]

    def append(self, result: SweepResult) -> None:
        self._results.append(result)

    @property
    def scenarios(self) -> List[Scenario]:
        return [entry.scenario for entry in self._results]

    @property
    def summaries(self) -> List[SimulationSummary]:
        return [entry.summary for entry in self._results]

    # -- selection and aggregation ----------------------------------------

    def group_by(self, *names: str) -> Dict[Tuple, "ResultSet"]:
        """Group by scenario fields; keys are value tuples, in sweep order."""
        groups: Dict[Tuple, ResultSet] = {}
        for entry in self._results:
            key = tuple(getattr(entry.scenario, name) for name in names)
            groups.setdefault(key, ResultSet()).append(entry)
        return groups

    @staticmethod
    def _metric_value(summary: SimulationSummary, metric: Metric) -> float:
        if callable(metric):
            return metric(summary)
        attribute = getattr(summary, metric)
        return attribute() if callable(attribute) else attribute

    def values(self, metric: Metric) -> List[float]:
        return [self._metric_value(entry.summary, metric) for entry in self._results]

    def mean(self, metric: Metric) -> float:
        return stats.mean(self.values(metric))

    def aggregate(
        self,
        metric: Metric,
        *,
        by: Sequence[str] = (),
        reduce: Callable[[Sequence[float]], float] = stats.mean,
    ) -> Dict[Tuple, float]:
        """``reduce`` the metric within each ``by``-group (default: mean)."""
        if not by:
            return {(): reduce(self.values(metric))}
        return {
            key: reduce(group.values(metric))
            for key, group in self.group_by(*by).items()
        }

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "results": [
                {
                    "scenario": entry.scenario.to_dict(),
                    "summary": entry.summary.to_dict(),
                }
                for entry in self._results
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultSet":
        return cls(
            SweepResult(
                Scenario.from_dict(entry["scenario"]),
                SimulationSummary.from_dict(entry["summary"]),
            )
            for entry in payload["results"]
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self._results)} results)"
