"""Experiment orchestration and report formatting for the benchmark suite."""

from .reporting import collect_results, experiment_summary
from .experiments import (
    BENCH_DATASETS,
    BENCH_PATTERNS,
    DEFAULT_BENCH_SCALE,
    format_table,
    geomean,
    run_workload,
)

__all__ = [
    "BENCH_DATASETS",
    "collect_results",
    "experiment_summary",
    "BENCH_PATTERNS",
    "DEFAULT_BENCH_SCALE",
    "format_table",
    "geomean",
    "run_workload",
]
