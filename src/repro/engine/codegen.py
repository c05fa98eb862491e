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

Roots are processed in chunks by the same driver as ``batched``
(:func:`repro.engine.functional.sweep_frontier`).
"""

from __future__ import annotations

import numpy as np

from ..patterns.codegen import compile_plan_kernel
from .base import register_engine
from .batched import BatchedEngine
from .functional import FrontierExpander, FrontierLevel, sweep_frontier

__all__ = ["CodegenEngine"]


@register_engine
class CodegenEngine(BatchedEngine):
    """Whole-frontier execution through exec-compiled plan kernels."""

    name = "codegen"
    description = (
        "plan-compiled NumPy kernels — the plan's loop nest, fused filters "
        "and symmetry bounds emitted as source and exec-compiled per "
        "pattern; counts and cycle aggregates identical to 'batched'"
    )

    def _sweep(
        self, expander: FrontierExpander, all_roots: np.ndarray, ob
    ) -> list[FrontierLevel]:
        """The shared sweep with the compiled kernel as its chunk step."""
        # the expander supplies the graph-side state the kernel closes
        # over: span search, adjacency oracle, row-word geometry, roots
        graph = expander.graph
        kernel = compile_plan_kernel(
            expander.plan, use_labels=graph.labels is not None
        )
        spans = expander.spans
        adjacent = expander.adjacent
        rw = expander.row_words
        # one call covers every level of a chunk — the unrolled kernel
        # returns as soon as a frontier empties
        return sweep_frontier(
            expander, all_roots, self.root_chunk, ob,
            steps=lambda emb: kernel.fn(graph, spans, adjacent, rw, emb),
        )
