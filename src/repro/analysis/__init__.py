"""Experiment orchestration and report formatting for the benchmark suite."""

from .plots import bar_chart, grouped_bars, line_series
from .reporting import collect_results, experiment_summary
from .experiments import (
    BENCH_DATASETS,
    BENCH_PATTERNS,
    DEFAULT_BENCH_SCALE,
    GridResult,
    format_table,
    geomean,
    run_grid,
    run_workload,
)

__all__ = [
    "BENCH_DATASETS",
    "bar_chart",
    "collect_results",
    "experiment_summary",
    "grouped_bars",
    "line_series",
    "BENCH_PATTERNS",
    "DEFAULT_BENCH_SCALE",
    "GridResult",
    "format_table",
    "geomean",
    "run_grid",
    "run_workload",
]
