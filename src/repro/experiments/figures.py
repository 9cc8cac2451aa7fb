"""Every paper artifact by id, each one a spec value rather than a module.

A figure (§5, Figs 3–20) is one :class:`Experiment`: its header, the keyed
``cells(scale)`` it reads, a pure ``rows(summaries)`` and one of three
layouts (:class:`Table`, :class:`Cdfs`, :class:`KeyValue`).  One generic
runner primes every cell through the shared cache (``jobs`` workers, store
resume), then renders.  ``table1``, ``ext_baselines`` and ``app_*`` read no
summaries and declare a plain ``runner(scale)``.  Every entry is registered
under the ``"experiment"`` component kind, so unknown ids raise
:class:`~repro.registry.UnknownComponentError` listing the alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

from ..metrics import stats
from ..registry import REGISTRY, resolve
from . import apps_workloads, ext_baselines, table1
from .cache import SimulationCache, default_cache
from .report import format_cdf, format_kv, format_table
from .runner import SimulationConfig
from .scenarios import n_values, overnet_scenario, planetlab_scenario, scenario
from .summary import SimulationSummary

__all__ = ["EXPERIMENTS", "Experiment", "experiment_ids", "run_experiment"]

Cells = Dict[Hashable, SimulationConfig]
Summaries = Dict[Hashable, SimulationSummary]


class Table:
    """The header, then one table per column tuple (with several, the rows
    are one row list per table)."""

    def __init__(self, *columns: Tuple[str, ...]) -> None:
        self.columns = columns

    def render(self, header: str, rows) -> str:
        tables = rows if len(self.columns) > 1 else [rows]
        blocks = [format_table(cols, body) for cols, body in zip(self.columns, tables)]
        return header + "\n" + "\n\n".join(blocks)


@dataclass(frozen=True)
class Cdfs:
    """The header, an optional summary table, then one CDF per row; rows
    are ``(caption, summary row or None, CDF points)``."""

    value_label: str
    columns: Optional[Tuple[str, ...]] = None

    def render(self, header: str, rows) -> str:
        lines = [header]
        if self.columns:
            lines += ["", format_table(self.columns, [row for _, row, _ in rows])]
        for caption, _, points in rows:
            lines += ["", caption, format_cdf(points, value_label=self.value_label)]
        return "\n".join(lines)


@dataclass(frozen=True)
class KeyValue:
    """The header, then ``key : value`` blocks; rows are ``(pairs, cdf)``,
    *cdf* ``None`` or a ``(caption, points)`` CDF under its block."""

    value_label: str = "value"

    def render(self, header: str, rows) -> str:
        lines = [header, ""]
        for pairs, cdf in rows:
            lines.append(format_kv(pairs))
            if cdf is not None:
                caption, points = cdf
                lines += [caption, format_cdf(points, value_label=self.value_label)]
            lines.append("")
        return "\n".join(lines).rstrip()


@dataclass(frozen=True)
class Experiment:
    """One paper artifact: a figure declares *header*, *cells*, *rows* and
    *layout*; an artifact that reads no summaries declares a *runner*."""

    id: str
    title: str
    header: str = ""
    cells: Optional[Callable[[str], Cells]] = None
    rows: Optional[Callable[[Summaries], object]] = None
    layout: Union[Table, Cdfs, KeyValue, None] = None
    runner: Optional[Callable[[str], str]] = None

    @property
    def supports_jobs(self) -> bool:
        """Whether the artifact has cells to fan out over worker processes."""
        return self.cells is not None

    def compute(
        self,
        scale: str = "bench",
        cache: Optional[SimulationCache] = None,
        jobs: int = 1,
    ):
        """One prime of every cell, then rows from flat summaries only (no
        full result — live cluster + network graph — is ever pinned)."""
        cache = cache if cache is not None else default_cache()
        cells = self.cells(scale)
        cache.prime(cells.values(), jobs=jobs)
        return self.rows({key: cache.get_summary(cell) for key, cell in cells.items()})

    def run(
        self,
        scale: str = "bench",
        cache: Optional[SimulationCache] = None,
        jobs: int = 1,
    ) -> str:
        if self.runner is not None:
            return self.runner(scale)
        return self.layout.render(self.header, self.compute(scale, cache, jobs))


MODELS = ("STAT", "SYNTH", "SYNTH-BD")
BIRTH_DEATH = ("SYNTH-BD", "SYNTH-BD2")  # BD2 doubles the birth/death rates
MAX_L = 3  # figure 6 times the 1st … MAX_L-th monitor discovery
MULTIPLIERS = (4, 6, 8, 10)  # figures 11/12: cvs = multiplier * N^(1/4)
FORGETFUL = ("forgetful", "non-forgetful")  # figures 17/18 SYNTH variants
FRACTIONS = (0.0, 0.1, 0.2)  # figure 20: overreporting fractions (x-axis) …
SYSTEMS = ("SYNTH", "SYNTH-BD", "PL", "OV")  # … for each churn setting


def _extremes(scale: str) -> Tuple[int, int]:
    return n_values(scale)[0], n_values(scale)[-1]


def _largest(scale: str) -> Tuple[int]:
    return (n_values(scale)[-1],)


def _grid(labels, xs, build=scenario) -> Callable[[str], Cells]:
    """Cells ``(label, x) -> build(label, x, scale)`` for x in ``xs(scale)``."""
    return lambda scale: {
        (label, x): build(label, x, scale) for label in labels for x in xs(scale)
    }


def _cvs_cells(scale: str) -> Cells:
    # A declarative Scenario grid over ``avmon`` overrides rather than a
    # bespoke loop: the sweep primes, fans out over ``jobs`` and resumes from
    # a store exactly like the N sweeps.  The largest two N values stand in
    # for the paper's pair.
    from ..api import Scenario, expand_grid  # local: avoid import cycle at load

    cells: Cells = {}
    for n in n_values(scale)[-2:]:
        base = Scenario(model="STAT", n=n, scale=scale)
        views = [{"cvs": max(1, round(m * n ** 0.25))} for m in MULTIPLIERS]
        for multiplier, cell in zip(MULTIPLIERS, expand_grid(base, {"avmon": views})):
            config = cell.to_config()
            cells[(n, multiplier, config.resolved_avmon().cvs)] = config
    return cells


def _trace_cells(scale: str) -> Cells:
    return {"PL": planetlab_scenario(scale), "OV": overnet_scenario(scale)}


def _forgetful(variant: str, n: int, scale: str) -> SimulationConfig:
    config = scenario("SYNTH", n, scale)
    if scale != "paper":
        # Forgetful-ping savings are governed by the dimensionless ratio of
        # measurement window to mean session length (the paper's 47 h / 5 h
        # ~ 9); preserve it when the window is scaled down by scaling the
        # churn rate up.
        window_hours = (config.duration - config.warmup) / 3600.0
        config.churn_per_hour = 9.0 / window_hours
    forgetful = variant == "forgetful"
    config.avmon = config.resolved_avmon().with_overrides(enable_forgetful=forgetful)
    config.label = f"SYNTH-{variant}"
    return config


def _bandwidth_cells(scale: str) -> Cells:
    # STAT-PR2: a node unpinged for two protocol periods forces itself back
    # into its coarse-view members' views (the in-degree refresh).
    n = n_values(scale)[-1]
    stat, pr2 = scenario("STAT", n, scale), scenario("STAT", n, scale)
    pr2.avmon = pr2.resolved_avmon().with_overrides(enable_pr2=True)
    pr2.label = "STAT-PR2"
    return {"STAT": stat, "STAT-PR2": pr2, "OV": overnet_scenario(scale)}


def _overreport(system: str, fraction: float, scale: str) -> SimulationConfig:
    if system == "PL":
        config = planetlab_scenario(scale, overreport_fraction=fraction)
    elif system == "OV":
        config = overnet_scenario(scale, overreport_fraction=fraction)
    else:
        # A mid-size N keeps the 12-run sweep affordable.
        sweep = n_values(scale)
        n = sweep[len(sweep) // 2]
        config = scenario(system, n, scale, overreport_fraction=fraction)
    config.label = f"{system}-overreport-{fraction}"
    return config


_comps = partial(SimulationSummary.computation_rates, control_only=True)
_memory = partial(SimulationSummary.memory_values, control_only=True)


def _series_rows(series, extra=None) -> Callable[[Summaries], list]:
    """Per ``(label, N)`` cell: mean and std of a per-node *series* [+ extra]."""

    def rows(summaries: Summaries) -> list:
        out = []
        for (label, n), summary in summaries.items():
            values = series(summary)
            row = (label, n, stats.mean(values), stats.std(values))
            out.append(row if extra is None else row + (extra(summary),))
        return out

    return rows


def _cdf_per_cell(series) -> Callable[[Summaries], list]:
    return lambda summaries: [
        (f"{model}, N = {n}:", None, stats.cdf_points(series(summary)))
        for (model, n), summary in sorted(summaries.items())
    ]


def _discovery_rows(summaries: Summaries) -> list:
    rows = []
    for (model, n), summary in summaries.items():
        # Footnote 8: the single highest measurement is dropped as an outlier.
        avg = summary.average_discovery_time(drop_top=1)
        std = stats.std(summary.first_monitor_delays())
        rows.append((model, n, avg, std, summary.tracked_count()))
    return rows


def _discovery_cdf_rows(summaries: Summaries) -> list:
    rows = []
    for (_, n), summary in sorted(summaries.items()):
        delays = summary.first_monitor_delays()
        within = [stats.fraction_below(delays, limit) for limit in (30.0, 60.0)]
        row = (n, len(delays), *within)
        rows.append((f"CDF, N = {n}:", row, stats.cdf_points(delays)))
    return rows


def _l_monitor_rows(summaries: Summaries) -> list:
    rows = []
    for (model, n), summary in summaries.items():
        for level in range(1, MAX_L + 1):
            delays = summary.nth_monitor_delays(level)
            rows.append((model, n, level, stats.mean(delays), len(delays)))
    return rows


def _cvs_rows(summaries: Summaries) -> list:
    rows = []
    for (n, multiplier, cvs), summary in summaries.items():
        delays = summary.first_monitor_delays()
        row = (n, multiplier, cvs, stats.mean(delays), stats.std(delays))
        rows.append(row + (stats.mean(_memory(summary)), stats.mean(_comps(summary))))
    return rows


def _trace_discovery_rows(summaries: Summaries) -> list:
    rows = []
    for label, summary in sorted(summaries.items()):
        delays = summary.first_monitor_delays()
        pairs = [
            (f"{label} nodes born", summary.n_longterm),
            (f"{label} frac discovered <= 63 s", stats.fraction_below(delays, 63.0)),
        ]
        rows.append((pairs, (f"{label} discovery CDF:", stats.cdf_points(delays))))
    return rows


def _trace_memory_rows(summaries: Summaries) -> list:
    rows = []
    for label, summary in sorted(summaries.items()):
        memory = summary.memory_values(control_only=False)
        pairs = [
            (f"{label} expected cvs+2K", summary.avmon["expected_memory_entries"]),
            (f"{label} mean entries", stats.mean(memory)),
            (f"{label} max entries", max(memory) if memory else 0.0),
        ]
        rows.append((pairs, (f"{label} memory CDF:", stats.cdf_points(memory))))
    return rows


def _high_churn_cdf_rows(summaries: Summaries) -> list:
    rows = []
    for (model, n), summary in sorted(summaries.items()):
        delays = summary.first_monitor_delays()
        mean, within = stats.mean(delays), stats.fraction_below(delays, 60.0)
        row = (model, n, summary.n_longterm, mean, within)
        rows.append((f"{model} CDF:", row, stats.cdf_points(delays)))
    return rows


def _high_churn_memory_rows(summaries: Summaries) -> tuple:
    rows = _series_rows(_memory)(summaries)
    base = {n: avg for model, n, avg, _ in rows if model == "SYNTH-BD"}
    increases = [
        (n, (avg - base[n]) / base[n])
        for model, n, avg, _ in rows
        if model == "SYNTH-BD2" and base.get(n)
    ]
    return rows, increases


def _forgetful_accuracy_rows(summaries: Summaries) -> list:
    rows = []
    mean_error = {}
    for (variant, n), summary in sorted(summaries.items()):
        ratios = list(summary.availability_ratio_series().values())
        errors = [abs(r - 1.0) for r in ratios]
        mean_error[variant] = stats.mean(errors)
        pairs = [
            (f"{variant} N", n),
            (f"{variant} nodes audited", len(ratios)),
            (f"{variant} mean ratio", stats.mean(ratios)),
            (f"{variant} mean |error|", mean_error[variant]),
            (f"{variant} max |error|", max(errors) if errors else 0.0),
        ]
        rows.append((pairs, None))
    # The paper's comparison: how much error does forgetting *add* on top
    # of the sampling noise both estimators share?
    excess = mean_error["forgetful"] - mean_error["non-forgetful"]
    rows.append(([("forgetful excess mean |error| vs baseline", excess)], None))
    return rows


def _bandwidth_rows(summaries: Summaries) -> list:
    rows = []
    for label, summary in summaries.items():
        rates = summary.bandwidth_rates()
        below = [stats.fraction_below(rates, limit) for limit in (10.0, 25.0)]
        tail = (stats.percentile(rates, 99.0), max(rates) if rates else 0.0)
        row = (label, len(rates), *below, *tail)
        rows.append((f"{label} CDF:", row, stats.cdf_points(rates)))
    return rows


def _overreport_rows(summaries: Summaries) -> list:
    return [
        (system, fraction, s.fraction_affected(0.2), len(s.availability_alive))
        for (system, fraction), s in summaries.items()
    ]


_DISCOVERY = Cdfs("discovery time (s)", ("N", "nodes", "frac <= 30 s", "frac <= 60 s"))

# Figures 11 and 12 are one sweep and render one shared text.
_CVS_SWEEP = dict(
    header=(
        "Figures 11 & 12 - varying coarse view size (STAT model)\n"
        "paper fig 11: discovery time decreases with cvs, knee at 8*N^(1/4)\n"
        "paper fig 12: memory linear in cvs, computations quadratic,\n"
        "independent of N"
    ),
    cells=_cvs_cells,
    rows=_cvs_rows,
    layout=Table(
        (
            "N",
            "mult",
            "cvs",
            "avg discovery (s)",
            "std (s)",
            "avg memory entries",
            "avg comps/s",
        )
    ),
)

_ARTIFACTS = (
    Experiment(
        "table1",
        "Complexity of Broadcast vs AVMON variants",
        runner=lambda scale: table1.render(table1.compute()),
    ),
    Experiment(
        "fig3",
        "Average first-monitor discovery time vs N",
        "Figure 3 - average discovery time of first monitor (control group)\n"
        "paper: below 1 minute for every model and N; join/leave churn has\n"
        "no effect, birth/death only a mild one",
        cells=_grid(MODELS, n_values),
        rows=_discovery_rows,
        layout=Table(("model", "N", "avg discovery (s)", "std (s)", "control nodes")),
    ),
    Experiment(
        "fig4",
        "Discovery-time CDF, STAT",
        "Figure 4 - CDF of first-monitor discovery time, STAT model\n"
        "paper: at least 96% of nodes discovered in under 30 seconds",
        cells=_grid(("STAT",), _extremes),
        rows=_discovery_cdf_rows,
        layout=_DISCOVERY,
    ),
    Experiment(
        "fig5",
        "Discovery-time CDF, SYNTH-BD",
        "Figure 5 - CDF of first-monitor discovery time, SYNTH-BD model\n"
        "paper: at least 93.3% of nodes discovered within 60 seconds",
        cells=_grid(("SYNTH-BD",), _extremes),
        rows=_discovery_cdf_rows,
        layout=_DISCOVERY,
    ),
    Experiment(
        "fig6",
        "Time to first L monitors",
        "Figure 6 - average time to discovery of first L monitors\n"
        "paper: monitors are discovered at roughly uniform intervals for\n"
        "every churn model",
        cells=_grid(MODELS, _largest),
        rows=_l_monitor_rows,
        layout=Table(("model", "N", "L", "avg time to Lth monitor (s)", "nodes")),
    ),
    Experiment(
        "fig7",
        "Computations per second vs N",
        "Figure 7 - average computations per second per node\n"
        "paper: sublinear in N, close to 2*cvs^2 per minute, barely\n"
        "influenced by churn",
        cells=_grid(MODELS, n_values),
        rows=_series_rows(
            _comps, lambda s: 2.0 * s.avmon["cvs"] ** 2 / s.avmon["protocol_period"]
        ),
        layout=Table(("model", "N", "avg comps/s", "std", "expected 2*cvs^2/T")),
    ),
    Experiment(
        "fig8",
        "CDF of computations per second",
        "Figure 8 - CDF of per-node computations per second",
        cells=_grid(MODELS, _extremes),
        rows=_cdf_per_cell(_comps),
        layout=Cdfs("comps/s"),
    ),
    Experiment(
        "fig9",
        "Memory entries vs N",
        "Figure 9 - average memory entries per node (|PS| + |TS| + |CV|)\n"
        "paper: close to the expected cvs + 2K; churned models slightly\n"
        "above due to garbage PS/TS entries",
        cells=_grid(MODELS, n_values),
        rows=_series_rows(_memory, lambda s: s.avmon["expected_memory_entries"]),
        layout=Table(("model", "N", "avg entries", "std", "expected cvs+2K")),
    ),
    Experiment(
        "fig10",
        "CDF of memory entries",
        "Figure 10 - CDF of per-node memory entries",
        cells=_grid(MODELS, _extremes),
        rows=_cdf_per_cell(_memory),
        layout=Cdfs("memory entries"),
    ),
    Experiment("fig11", "Discovery time vs coarse-view size", **_CVS_SWEEP),
    Experiment("fig12", "Memory and computation vs coarse-view size", **_CVS_SWEEP),
    # PL and OV replay repro.traces' synthetic stand-ins for the paper's traces.
    Experiment(
        "fig13",
        "Discovery-time CDF, PL and OV traces",
        "Figure 13 - CDF of first-monitor discovery time (PL and OV traces)\n"
        "paper: 97.27% of OV births and >98% of PL nodes discover their\n"
        "first monitor within about a minute",
        cells=_trace_cells,
        rows=_trace_discovery_rows,
        layout=KeyValue("discovery (s)"),
    ),
    Experiment(
        "fig14",
        "Memory CDF, PL and OV traces",
        "Figure 14 - CDF of per-node memory entries (PL and OV traces)\n"
        "paper: uniform across nodes; OV above the cvs+2K expectation due\n"
        "to birth/death garbage; max 81 entries (OV), 44 (PL)",
        cells=_trace_cells,
        rows=_trace_memory_rows,
        layout=KeyValue("entries"),
    ),
    Experiment(
        "fig15",
        "Discovery CDF under doubled birth/death",
        "Figure 15 - discovery-time CDFs under doubled birth/death churn\n"
        "paper: no noticeable difference between SYNTH-BD and SYNTH-BD2",
        cells=_grid(BIRTH_DEATH, _largest),
        rows=_high_churn_cdf_rows,
        layout=Cdfs(
            "discovery (s)",
            ("model", "N", "N_longterm", "mean discovery (s)", "frac <= 60 s"),
        ),
    ),
    Experiment(
        "fig16",
        "Memory under doubled birth/death",
        "Figure 16 - average memory entries, SYNTH-BD vs SYNTH-BD2\n"
        "paper: doubled churn adds less than 10% extra memory entries",
        cells=_grid(BIRTH_DEATH, n_values),
        rows=_high_churn_memory_rows,
        layout=Table(
            ("model", "N", "avg entries", "std"), ("N", "relative increase BD2 vs BD")
        ),
    ),
    Experiment(
        "fig17",
        "Forgetful pinging: estimation accuracy",
        "Figure 17 - estimated/real availability ratio per control node\n"
        "paper: non-forgetful is accurate; forgetful adds < 5% average\n"
        "relative error (max 8%) over the non-forgetful baseline",
        cells=_grid(FORGETFUL, _largest, _forgetful),
        rows=_forgetful_accuracy_rows,
        layout=KeyValue(),
    ),
    Experiment(
        "fig18",
        "Forgetful pinging: useless pings saved",
        "Figure 18 - useless pings per minute (sent to absent nodes)\n"
        "paper: forgetful pinging reduces useless pings by roughly an\n"
        "order of magnitude",
        cells=_grid(FORGETFUL, n_values, _forgetful),
        rows=_series_rows(SimulationSummary.useless_ping_rates),
        layout=Table(("variant", "N", "avg useless pings/min", "std")),
    ),
    Experiment(
        "fig19",
        "Outgoing-bandwidth CDF (STAT, STAT-PR2, OV)",
        "Figure 19 - CDF of per-node outgoing bandwidth (bytes/second)\n"
        "paper: STAT mostly < 10 Bps with a heavy tail; PR2 removes the\n"
        "tail; OV stays uniform under churn",
        cells=_bandwidth_cells,
        rows=_bandwidth_rows,
        layout=Cdfs(
            "outgoing Bps",
            ("setting", "nodes", "frac <= 10 Bps", "frac <= 25 Bps", "p99 Bps", "max Bps"),
        ),
    ),
    Experiment(
        "fig20",
        "Overreporting attack resilience",
        "Figure 20 - overreporting attack: fraction of nodes whose measured\n"
        "availability is off by more than 0.2\n"
        "paper: at most 3.5% of nodes affected in the worst case",
        cells=_grid(SYSTEMS, lambda scale: FRACTIONS, _overreport),
        rows=_overreport_rows,
        layout=Table(
            ("system", "overreporting fraction", "fraction affected", "nodes audited")
        ),
    ),
    Experiment(
        "ext_baselines",
        "Baselines vs AVMON (extension)",
        runner=lambda scale: ext_baselines.render(
            ext_baselines.compute(n=80 if scale == "test" else 300)
        ),
    ),
    Experiment(
        "app_query",
        "Application: availability queries via verified monitors (§3.3)",
        runner=apps_workloads.run_query,
    ),
    Experiment(
        "app_replication",
        "Application: availability-aware replica placement",
        runner=apps_workloads.run_replication,
    ),
    Experiment(
        "app_prediction",
        "Application: availability prediction from histories",
        runner=apps_workloads.run_prediction,
    ),
)

EXPERIMENTS: Dict[str, Experiment] = {exp.id: exp for exp in _ARTIFACTS}

for _experiment in _ARTIFACTS:
    if not REGISTRY.is_registered("experiment", _experiment.id):
        REGISTRY.register("experiment", _experiment.id, _experiment)
del _experiment


def experiment_ids() -> tuple:
    return tuple(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    scale: str = "bench",
    cache: Optional[SimulationCache] = None,
    jobs: int = 1,
) -> str:
    """Run one artifact by id (raises UnknownComponentError when unknown)."""
    experiment = resolve("experiment", experiment_id)
    return experiment.run(scale, cache, jobs=jobs)
