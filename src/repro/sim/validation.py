"""Cross-validation of the fast simulator against exact pipeline models.

The paper validates its fast SystemC simulator against RTL simulation on
small test cases (§7.1.1).  This module replays the same methodology one
level up: an :class:`ExactTaskExecutor` executes every task by *streaming
the actual word sequences through the element-level pipeline models* of
:mod:`repro.setops` (the "RTL" of this reproduction), while the production
:class:`~repro.sim.hwexec.HardwareTaskExecutor` uses the analytic cost
formulas.  :func:`cross_validate` runs a workload through both and reports
the cycle-count discrepancy, which tests pin to a small tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import SystemConfig
from ..engine.functional import expand_task, walk_tasks
from ..graph import bitmapcsr
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..patterns.plan import MatchingPlan
from ..setops.bitonic import OrderAwarePipeline
from ..setops.merge_queue import MergeQueuePipeline
from ..setops.systolic import SystolicMergeArray
from ..siu.base import consumed_extents, merge_boundaries
from ..siu.models import make_siu
from .accelerator import AcceleratorSim
from .hwexec import HardwareTaskExecutor, TaskOutcome

__all__ = ["ExactTaskExecutor", "CrossValidation", "cross_validate"]

#: the element-level pipelines' names for the two set operations
_PIPE_OP = {"set_int": "intersect", "set_diff": "difference"}


def _exact_pipeline(config: SystemConfig):
    if config.siu_kind == "order-aware":
        return OrderAwarePipeline(config.segment_width, config.bitmap_width)
    if config.siu_kind == "sma":
        return SystolicMergeArray(config.segment_width, config.bitmap_width)
    return MergeQueuePipeline(config.bitmap_width)


class ExactTaskExecutor(HardwareTaskExecutor):
    """Task executor whose per-op cycle counts come from the exact pipelines.

    Much slower than the analytic executor (it materialises BitmapCSR word
    streams and walks them element by element), so it is reserved for
    validation on small graphs.
    """

    def __init__(self, graph, plan, siu, memory, config: SystemConfig,
                 task_overhead_cycles: int = 0) -> None:
        super().__init__(graph, plan, siu, memory,
                         task_overhead_cycles=task_overhead_cycles)
        self._pipe = _exact_pipeline(config)
        #: cumulative exact issue cycles measured op by op
        self.exact_issue_cycles = 0

    def execute(self, task, pe: int, now: float) -> TaskOutcome:
        # run the analytic path for the simulation itself...
        outcome = super().execute(task, pe, now)
        # ...then stream its ops (the functional step is idempotent, so
        # asking it again is exact) through the element-level pipeline
        width = self._width
        for rec in expand_task(self.graph, self.plan, task).ops:
            trace = self._pipe.run(
                bitmapcsr.encode(rec.a, width),
                bitmapcsr.encode(rec.b, width),
                _PIPE_OP[rec.kind],
            )
            self.exact_issue_cycles += trace.issue_cycles
        return outcome


@dataclass(frozen=True)
class CrossValidation:
    """Result of one fast-vs-exact comparison."""

    analytic_cycles: float
    exact_issue_cycles: int
    analytic_comparisons: int
    embeddings_match: bool
    relative_issue_error: float


def cross_validate(
    graph: CSRGraph, plan: MatchingPlan, config: SystemConfig
) -> CrossValidation:
    """Run one workload through both executors and compare.

    The comparison metric is total *issue cycles* across all set operations
    — the quantity the analytic formulas approximate.  Memory timing and
    scheduling are identical in both runs by construction.
    """
    # analytic run
    sim = AcceleratorSim(graph, plan, config)
    report = sim.run()

    # exact replay
    memory = MemoryHierarchy(config.memory_config())
    siu = make_siu(config.siu_kind, config.segment_width,
                   config.bitmap_width)
    exact = ExactTaskExecutor(
        graph, plan, siu, memory, config,
        task_overhead_cycles=config.task_overhead_cycles,
    )
    sim2 = AcceleratorSim(graph, plan, config)
    sim2.executor = exact
    report2 = sim2.run()

    # the cost model's issue cycles for the same ops
    analytic_issue = _analytic_issue_cycles(graph, plan, config)
    err = (
        abs(analytic_issue - exact.exact_issue_cycles)
        / max(exact.exact_issue_cycles, 1)
    )
    return CrossValidation(
        analytic_cycles=report.cycles,
        exact_issue_cycles=exact.exact_issue_cycles,
        analytic_comparisons=report.comparisons,
        embeddings_match=report.embeddings == report2.embeddings,
        relative_issue_error=err,
    )


def _analytic_issue_cycles(
    graph: CSRGraph, plan: MatchingPlan, config: SystemConfig
) -> int:
    """Total analytic issue cycles over every op of the workload."""
    siu = make_siu(config.siu_kind, config.segment_width,
                   config.bitmap_width)
    total = 0
    for _, expansion in walk_tasks(graph, plan, plan.stop_level):
        for rec in expansion.ops:
            ka, kb = siu._streams(rec.a, rec.b)
            i_end, j_end, matches = merge_boundaries(ka, kb)
            c_a, c_b = consumed_extents(ka, kb)
            cost = siu.cost_terms(
                int(ka.size), int(kb.size), i_end, j_end, matches, rec.kind,
                c_a=c_a, c_b=c_b,
            )
            total += cost.issue_cycles
    return total
