"""Shared experiment-running helpers used by the benchmark harness.

Every figure/table regeneration in ``benchmarks/`` is a thin wrapper over
these: run a grid of (dataset, pattern, configuration) workloads, collect
reports, and format the paper-style rows.  Dataset scales default to values
that keep the whole suite at laptop timescales; pass ``scale=1.0`` for the
full stand-in sizes (EXPERIMENTS.md records which scale each recorded run
used).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..core.config import SystemConfig, xset_default
from ..graph.datasets import load_dataset
from ..patterns.pattern import PATTERNS
from ..patterns.plan import build_plan
from ..sim.host import run_on_soc
from ..sim.report import SimReport

__all__ = [
    "DEFAULT_BENCH_SCALE",
    "BENCH_PATTERNS",
    "BENCH_DATASETS",
    "geomean",
    "run_workload",
    "format_table",
]

#: default down-scale applied to dataset stand-ins inside benchmarks
DEFAULT_BENCH_SCALE = 0.25
#: the pattern set used by the end-to-end figures (5CF/3MF run separately)
BENCH_PATTERNS = ("3CF", "4CF", "CYC", "DIA", "TT")
#: datasets used by the end-to-end figures (Table 3 keys)
BENCH_DATASETS = ("PP", "WV", "AS", "MI", "YT", "PA", "LJ")


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's aggregate of choice for speedups."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def run_workload(
    dataset: str,
    pattern: str,
    config: SystemConfig | None = None,
    scale: float = DEFAULT_BENCH_SCALE,
) -> SimReport:
    """Simulate one (dataset, pattern) workload on one configuration."""
    graph = load_dataset(dataset, scale=scale)
    plan = build_plan(PATTERNS[pattern])
    return run_on_soc(graph, plan, config or xset_default())


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table in the style of the paper's tables."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
