"""Task structures and scheduling policies for the GPM search tree.

Two scheduling layers live here: the paper's per-PE hardware schedulers
(:mod:`repro.sched.policies`) and the service-level adaptive stack
(:mod:`repro.sched.adaptive` — the cost predictor whose predictions
rank the service's job queue).  The
adaptive names are re-exported lazily so importing ``repro.sched`` for
:class:`SimTask` stays cheap.
"""

from .policies import (
    BarrierFreeScheduler,
    DFSScheduler,
    PseudoDFSScheduler,
    SchedulerBase,
    ShogunScheduler,
    make_scheduler,
)
from .task import SimTask, TaskSetState

__all__ = [
    "BarrierFreeScheduler",
    "CostEstimate",
    "CostPredictor",
    "DFSScheduler",
    "PseudoDFSScheduler",
    "QueryFeatures",
    "SchedulerBase",
    "ShogunScheduler",
    "SimTask",
    "TaskSetState",
    "make_scheduler",
    "query_features",
]

#: adaptive-layer names resolved on first attribute access
_ADAPTIVE = frozenset(
    {"CostEstimate", "CostPredictor", "QueryFeatures", "query_features"}
)


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    if name in _ADAPTIVE:
        from importlib import import_module

        return getattr(import_module("repro.sched.adaptive"), name)
    raise AttributeError(f"module 'repro.sched' has no attribute {name!r}")
