"""The ``codegen`` backend: plan-compiled NumPy kernel execution.

Where the ``batched`` engine interprets a generic level loop against the
plan's :class:`~repro.patterns.plan.LevelSpec` records, this backend runs
*compiled* source emitted by
:func:`repro.patterns.codegen.emit_plan_source`: the level loop is
unrolled, symmetry-break bounds become the spans of rank-bounded gathers
over pattern-constant columns, distinctness/label filters are fused
predicates, the adjacency probes are straight-line statements, and a
level that merely extends its parent's stored set draws its candidates
from the parent's survivors — the software analogue of the paper's claim
that specialising the execution substrate to the (pattern-constant) plan
is where the raw speed lives.

The emitted algebra computes the same sets as ``FrontierExpander.expand``
and charges every set operation the same input size, so embedding counts
*and* the per-level aggregates feeding the analytic temporal model are
byte-identical to the ``batched`` engine, which stays the interpreted
reference.  Kernels are cached per plan structure (see
:func:`repro.patterns.codegen.kernel_cache_key`), so the one-time emission
+ ``exec`` cost amortises across runs, root chunks and configs.

Roots are processed in chunks (same policy as ``batched``) so peak
frontier memory stays bounded.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING

import numpy as np

from ..obs import context as _obs
from ..patterns.codegen import compile_plan_kernel
from ..resilience import faults as _faults
from ..siu.models import make_siu
from .base import Engine, register_engine
from .batched import ROOT_CHUNK
from .functional import FrontierExpander, FrontierLevel
from .temporal import annotate_frontier_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..graph.csr import CSRGraph
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["CodegenEngine"]


@register_engine
class CodegenEngine(Engine):
    """Whole-frontier execution through exec-compiled plan kernels."""

    name = "codegen"
    description = (
        "plan-compiled NumPy kernels — the plan's loop nest, fused filters "
        "and symmetry bounds emitted as source and exec-compiled per "
        "pattern; counts and cycle aggregates identical to 'batched'"
    )

    def __init__(self, root_chunk: int = ROOT_CHUNK) -> None:
        self.root_chunk = max(int(root_chunk), 1)

    def run(
        self,
        graph: "CSRGraph",
        plan: "MatchingPlan",
        config: "SystemConfig",
        roots: np.ndarray | None = None,
    ) -> "SimReport":
        from ..sim.report import SimReport

        t_wall = _time.perf_counter()
        ob = _obs.current()
        # fault site "engine.codegen": CRASH/HANG fire before the sweep,
        # CORRUPT flips a bit in the final count after it (soft error)
        inj = _faults.active()
        if inj is not None:
            inj.fire("engine.codegen")
        siu = make_siu(
            config.siu_kind, config.segment_width, config.bitmap_width
        )
        # the expander supplies the graph-side state the kernel closes
        # over: span search, adjacency oracle, row-word geometry, roots
        expander = FrontierExpander(graph, plan, siu.bitmap_width)
        kernel = compile_plan_kernel(
            plan, use_labels=graph.labels is not None
        )
        all_roots = expander.roots(roots)
        merged = [
            FrontierLevel(level=lv, tasks=0, embeddings=np.zeros((0, 0)))
            for lv in range(1, plan.stop_level + 1)
        ]
        if ob is None:
            self._sweep(kernel, expander, all_roots, merged, None)
        else:
            with ob.tracer.span(
                "engine.codegen",
                graph=graph.name,
                pattern=plan.pattern.name,
                roots=int(all_roots.shape[0]),
            ):
                self._sweep(kernel, expander, all_roots, merged, ob)
        report = SimReport(
            config_name=config.name,
            graph_name=graph.name,
            pattern_name=plan.pattern.name,
            frequency_ghz=config.frequency_ghz,
            num_sius=config.num_pes * config.sius_per_pe,
        )
        annotate_frontier_report(report, merged, graph, config, siu)
        if inj is not None:
            inj.corrupt("engine.codegen", report)
        report.wall_seconds = _time.perf_counter() - t_wall
        return report

    def _sweep(
        self,
        kernel,
        expander: FrontierExpander,
        all_roots: np.ndarray,
        merged: list[FrontierLevel],
        ob,
    ) -> None:
        """Run the compiled kernel once per root chunk into ``merged``."""
        graph = expander.graph
        spans = expander.spans
        adjacent = expander.adjacent
        rw = expander.row_words
        for start in range(0, all_roots.shape[0], self.root_chunk):
            emb = all_roots[start : start + self.root_chunk]
            # one call covers every level for this chunk — the unrolled
            # kernel returns as soon as a frontier empties
            steps = kernel.fn(graph, spans, adjacent, rw, emb)
            for step in steps:
                agg = merged[step.level - 1]
                agg.tasks += step.tasks
                agg.count += step.count
                agg.set_ops += step.set_ops
                agg.comparisons += step.comparisons
                agg.words_in += step.words_in
                agg.words_out += step.words_out
                agg.bit_rows += step.bit_rows
                if ob is not None:
                    ob.level_add(
                        step.level,
                        tasks=step.tasks,
                        elements=step.words_in,
                        comparisons=step.comparisons,
                        bit_rows=step.bit_rows,
                    )
