"""Cross-validation of the fast simulator against exact pipeline models.

The paper validates its fast SystemC simulator against RTL simulation on
small test cases (§7.1.1).  This module replays the same methodology one
level up: every set operation of a workload is streamed, as its actual word
sequences, through the element-level pipeline models of :mod:`repro.setops`
(the "RTL" of this reproduction), and the total is compared with the
analytic cost formulas the event simulator charges.  Issue cycles do not
depend on the schedule, so both sums run over ``walk_tasks``' op records;
:func:`cross_validate` reports the discrepancy, which tests pin to a small
tolerance, and checks the simulated run's embeddings against the walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import SystemConfig
from ..engine.functional import walk_tasks
from ..graph import bitmapcsr
from ..graph.csr import CSRGraph
from ..patterns.plan import MatchingPlan
from ..setops.bitonic import OrderAwarePipeline
from ..setops.merge_queue import MergeQueuePipeline
from ..setops.systolic import SystolicMergeArray
from ..siu.base import consumed_extents, merge_boundaries
from ..siu.models import make_siu
from .accelerator import AcceleratorSim

__all__ = ["CrossValidation", "cross_validate"]

#: the element-level pipelines' names for the two set operations
_PIPE_OP = {"set_int": "intersect", "set_diff": "difference"}


def _exact_pipeline(config: SystemConfig):
    if config.siu_kind == "order-aware":
        return OrderAwarePipeline(config.segment_width, config.bitmap_width)
    if config.siu_kind == "sma":
        return SystolicMergeArray(config.segment_width, config.bitmap_width)
    return MergeQueuePipeline(config.bitmap_width)


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
    """Run one workload through the simulator and the exact pipelines.

    The comparison metric is total *issue cycles* across all set operations
    — the quantity the analytic formulas approximate.  The exact pipelines
    are much slower than the analytic model (they materialise BitmapCSR
    word streams and walk them element by element), so this is reserved
    for validation on small graphs.
    """
    report = AcceleratorSim(graph, plan, config).run()
    pipe = _exact_pipeline(config)
    siu = make_siu(config.siu_kind, config.segment_width,
                   config.bitmap_width)
    width = config.bitmap_width
    exact_issue = analytic_issue = embeddings = 0
    for _, expansion in walk_tasks(graph, plan, plan.stop_level):
        embeddings += expansion.count
        for rec in expansion.ops:
            exact_issue += pipe.run(
                bitmapcsr.encode(rec.a, width),
                bitmapcsr.encode(rec.b, width),
                _PIPE_OP[rec.kind],
            ).issue_cycles
            ka, kb = siu._streams(rec.a, rec.b)
            i_end, j_end, matches = merge_boundaries(ka, kb)
            c_a, c_b = consumed_extents(ka, kb)
            analytic_issue += siu.cost_terms(
                int(ka.size), int(kb.size), i_end, j_end, matches, rec.kind,
                c_a=c_a, c_b=c_b,
            ).issue_cycles
    err = abs(analytic_issue - exact_issue) / max(exact_issue, 1)
    return CrossValidation(
        analytic_cycles=report.cycles,
        exact_issue_cycles=exact_issue,
        analytic_comparisons=report.comparisons,
        embeddings_match=report.embeddings == embeddings,
        relative_issue_error=err,
    )
