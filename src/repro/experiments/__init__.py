"""Evaluation harness: runner, scenarios, orchestrator, and every paper
artifact as one spec entry in :mod:`.figures`."""

from .cache import SimulationCache, default_cache
from .figures import EXPERIMENTS, Experiment, experiment_ids, run_experiment
from .orchestrator import CellFailure, SweepError, default_jobs, run_configs
from .runner import Cluster, SimulationConfig, SimulationResult, run_simulation
from .scenarios import (
    SCALES,
    n_values,
    overnet_scenario,
    planetlab_scenario,
    scale_window,
    scenario,
    trace_for,
)
from .store import SummaryStore, config_key, stable_key_hash, store_filename
from .summary import SimulationSummary, summarize

__all__ = [
    "CellFailure",
    "Cluster",
    "EXPERIMENTS",
    "Experiment",
    "SCALES",
    "SimulationCache",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSummary",
    "SummaryStore",
    "SweepError",
    "config_key",
    "default_cache",
    "default_jobs",
    "experiment_ids",
    "n_values",
    "overnet_scenario",
    "planetlab_scenario",
    "run_configs",
    "run_experiment",
    "run_simulation",
    "scale_window",
    "scenario",
    "stable_key_hash",
    "store_filename",
    "summarize",
    "trace_for",
]
