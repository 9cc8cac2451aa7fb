"""Table 1: complexity of Broadcast vs the AVMON variants.

Regenerates the paper's comparison table, both asymptotically and
instantiated at a concrete N (including the paper's running example
N = 10^6: cvs = 32 for Optimal-MDC, ~1000 hashes/period, 192 Bps).  Also
cross-checks the closed-form optima against a numeric minimiser.
"""

from __future__ import annotations

from typing import List

from ..core import optimal
from .report import format_kv, format_table

__all__ = ["compute", "render"]

#: The paper's running example size.
PAPER_EXAMPLE_N = 1_000_000


def compute(n: int = PAPER_EXAMPLE_N) -> List[optimal.TableRow]:
    return optimal.variant_table(n)


def render(rows: List[optimal.TableRow], n: int = PAPER_EXAMPLE_N) -> str:
    table = format_table(
        (
            "approach",
            "M (asympt.)",
            "D (asympt.)",
            "C (asympt.)",
            "cvs",
            "M entries",
            "E[D] periods",
            "C per period",
        ),
        [
            (
                row.approach,
                row.memory_bandwidth,
                row.discovery_time,
                row.computation,
                row.cvs_value if row.cvs_value is not None else "-",
                row.memory_value if row.memory_value is not None else "-",
                row.discovery_value if row.discovery_value is not None else "-",
                row.computation_value if row.computation_value is not None else "-",
            )
            for row in rows
        ],
    )
    numeric_md = optimal.minimize_cost(optimal.cost_md, n)
    numeric_mdc = optimal.minimize_cost(optimal.cost_mdc, n)
    checks = format_kv(
        [
            ("closed-form Optimal-MD cvs", optimal.cvs_optimal_md(n, rounded=False)),
            ("numeric  Optimal-MD cvs", numeric_md),
            ("closed-form Optimal-MDC cvs", optimal.cvs_optimal_mdc(n, rounded=False)),
            ("numeric  Optimal-MDC cvs", numeric_mdc),
        ]
    )
    header = f"Table 1 - AVMON variants at N = {n:,}\n"
    return header + table + "\n\nclosed form vs numeric minimiser:\n" + checks
