"""X-SET reproduction: an order-aware GPM accelerator, in Python.

Full-system reproduction of *X-SET: An Efficient Graph Pattern Matching
Accelerator With Order-Aware Parallel Intersection Units* (MICRO 2025):
the order-aware set intersection unit, the barrier-free task scheduler, the
set-centric GPM software stack, the memory hierarchy, baseline architectures
and every evaluation experiment.

Quickstart::

    from repro import XSetAccelerator, load_dataset, PATTERNS

    accel = XSetAccelerator()
    report = accel.count(load_dataset("WV"), PATTERNS["3CF"])
    print(report.embeddings, report.cycles)
"""

from .errors import (
    ClusterError,
    CommClosedError,
    CommError,
    CommTimeoutError,
    ConfigError,
    FaultInjectionError,
    GraphFormatError,
    InjectedCrashError,
    JobCancelledError,
    JobTimeoutError,
    MemoryModelError,
    PatternError,
    PlanError,
    QueueFullError,
    SchedulerError,
    ServiceError,
    SimulationError,
    WorkerCrashError,
    XSetError,
)

__version__ = "1.5.0"

__all__ = [
    "ClusterError",
    "CommClosedError",
    "CommError",
    "CommTimeoutError",
    "ConfigError",
    "FaultInjectionError",
    "GraphFormatError",
    "InjectedCrashError",
    "JobCancelledError",
    "JobTimeoutError",
    "MemoryModelError",
    "PatternError",
    "PlanError",
    "QueueFullError",
    "SchedulerError",
    "ServiceError",
    "SimulationError",
    "WorkerCrashError",
    "XSetError",
    "__version__",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose the high-level API to keep import cost low."""
    from importlib import import_module

    lazy = {
        "CSRGraph": "repro.graph",
        "load_dataset": "repro.graph",
        "dataset_table": "repro.graph",
        "PATTERNS": "repro.patterns",
        "Pattern": "repro.patterns",
        "MatchingPlan": "repro.patterns",
        "XSetAccelerator": "repro.core",
        "SystemConfig": "repro.core",
        "run_experiment": "repro.core",
        "QueryService": "repro.service",
        "JobHandle": "repro.service",
        "JobStatus": "repro.service",
        "CostPredictor": "repro.sched.adaptive",
        "Coordinator": "repro.cluster",
        "LocalCluster": "repro.cluster",
        "ShardWorker": "repro.cluster",
        "ClusterHealth": "repro.cluster",
        "FaultPlan": "repro.resilience",
        "FaultSpec": "repro.resilience",
        "FaultKind": "repro.resilience",
        "HealthState": "repro.resilience",
        "observe": "repro.obs",
        "ExecutionProfile": "repro.obs",
        "MetricsRegistry": "repro.obs",
        "Tracer": "repro.obs",
        "write_chrome_trace": "repro.obs",
        "configure_logging": "repro.obs",
    }
    if name in lazy:
        return getattr(import_module(lazy[name]), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
