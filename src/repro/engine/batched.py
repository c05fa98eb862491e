"""The ``batched`` backend: vectorised level-synchronous frontier expansion.

Instead of simulating one task-completion event at a time, this engine
expands the whole search frontier level by level with the bulk kernels in
:mod:`repro.setops.bulk` — one rank-bounded neighbour gather plus a handful
of boolean masks per level (AND + popcount over bit rows on a dense last one).
Functional results (embedding counts) are exact and identical to the
``event`` engine and the software reference; cycles are charged in
aggregate by the analytic model in
:func:`repro.engine.temporal.annotate_frontier_report`.

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
from .base import Engine, register_engine
from .functional import FrontierExpander, FrontierLevel, sweep_frontier
from .temporal import annotate_frontier_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..graph.csr import CSRGraph
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["BatchedEngine", "ROOT_CHUNK"]

#: roots expanded per sweep — bounds peak frontier memory while keeping
#: every NumPy call large enough to amortise its dispatch overhead
ROOT_CHUNK = 4096


@register_engine
class BatchedEngine(Engine):
    """Whole-frontier execution with aggregate analytic timing."""

    name = "batched"
    description = (
        "vectorised level-synchronous frontier expansion with analytic "
        "timing — orders of magnitude faster when only counts matter"
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
            merged = self._sweep(expander, all_roots, None)
        else:
            with ob.tracer.span(
                f"engine.{self.name}",
                graph=graph.name,
                pattern=plan.pattern.name,
                roots=int(all_roots.shape[0]),
            ):
                merged = self._sweep(expander, all_roots, ob)
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

    def _sweep(
        self, expander: FrontierExpander, all_roots: np.ndarray, ob
    ) -> list[FrontierLevel]:
        """One aggregate record per plan level over every root chunk."""
        return sweep_frontier(expander, all_roots, self.root_chunk, ob)
