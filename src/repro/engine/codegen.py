"""The ``codegen`` backend: plan-compiled NumPy kernel execution.

The one counting engine.  It runs *compiled* source emitted by
:func:`repro.patterns.codegen.emit_plan_source`: the level loop is
unrolled, symmetry-break bounds become the spans of rank-bounded gathers
over pattern-constant columns, distinctness/label filters are fused
predicates, the adjacency probes are straight-line statements, a level
that merely extends its parent's stored set draws its candidates from the
parent's survivors, and a terminal level whose sets are denser than the
packed adjacency rows ANDs and popcounts those rows instead — the software
analogue of the paper's claim that specialising the execution substrate to
the (pattern-constant) plan is where the raw speed lives.

Counts are exact and identical to the ``event`` engine and the software
reference; cycles are charged in aggregate by the analytic model in
:func:`repro.engine.temporal.annotate_frontier_report`, whose per-level
inputs ``tests/data/frontier_golden.json`` pins to the digit.  Kernels are
cached per plan structure (see :func:`repro.patterns.codegen.
kernel_cache_key`), so the one-time emission + ``exec`` cost amortises
across runs, root chunks and configs.

Use it when you want counts (``XSetAccelerator.count``) or a fast
design-space sweep; use ``event`` when the cycle-level interactions
(scheduling, cache contention, load imbalance) are the object of study.
Roots are processed in chunks by the one bulk driver,
:func:`repro.engine.functional.sweep_frontier`.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING

import numpy as np

from ..obs import context as _obs
from ..siu.models import make_siu
from .base import Engine
from .functional import FrontierExpander, sweep_frontier
from .temporal import annotate_frontier_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..graph.csr import CSRGraph
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["CodegenEngine", "ROOT_CHUNK"]

#: roots expanded per sweep — bounds peak frontier memory while keeping
#: every NumPy call large enough to amortise its dispatch overhead
ROOT_CHUNK = 4096


class CodegenEngine(Engine):
    """Whole-frontier execution through exec-compiled plan kernels."""

    name = "codegen"
    description = (
        "plan-compiled frontier expansion — the plan's loop nest, fused "
        "filters and symmetry bounds emitted as NumPy source and "
        "exec-compiled per pattern, with analytic timing"
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
        # guarded hot-path hook: with no active observation this is one
        # attribute load, and no span / accumulator code runs at all
        ob = _obs.current()
        siu = make_siu(
            config.siu_kind, config.segment_width, config.bitmap_width
        )
        expander = FrontierExpander(graph, plan, siu.bitmap_width)
        all_roots = expander.roots(roots)
        if ob is None:
            merged = sweep_frontier(expander, all_roots, self.root_chunk)
        else:
            with ob.tracer.span(
                f"engine.{self.name}",
                graph=graph.name,
                pattern=plan.pattern.name,
                roots=int(all_roots.shape[0]),
            ):
                merged = sweep_frontier(
                    expander, all_roots, self.root_chunk, ob
                )
        report = SimReport(
            config_name=config.name,
            graph_name=graph.name,
            pattern_name=plan.pattern.name,
            frequency_ghz=config.frequency_ghz,
            num_sius=config.num_pes * config.sius_per_pe,
        )
        annotate_frontier_report(report, merged, graph, config, siu)
        report.wall_seconds = _time.perf_counter() - t_wall
        return report
