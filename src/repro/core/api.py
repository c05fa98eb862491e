"""High-level public API: the X-SET accelerator as a library object.

This is what a downstream user touches::

    from repro import XSetAccelerator, load_dataset, PATTERNS

    accel = XSetAccelerator()                       # Table-2 configuration
    report = accel.count(load_dataset("WV"), PATTERNS["3CF"])
    print(report.embeddings, report.seconds)

``count`` runs the full SoC flow (host + RoCC + simulated accelerator) and
returns a :class:`~repro.sim.report.SimReport`; ``enumerate_embeddings``
yields the actual matches via the software reference path (enumeration is a
host-side concern — the accelerator streams results back).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..graph.csr import CSRGraph
from ..patterns.executor import enumerate_embeddings as _enum
from ..patterns.pattern import MOTIF3, Pattern
from ..patterns.plan import MatchingPlan, build_plan
from .config import SystemConfig, xset_default

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core<->sim cycle
    from ..sim.report import SimReport

__all__ = ["XSetAccelerator", "count_motifs3"]


class XSetAccelerator:
    """One configured X-SET SoC instance.

    ``engine`` picks the execution backend for ``count``-style runs:
    ``"event"`` (default — cycle-approximate event-driven simulation) or
    ``"codegen"`` (plan-compiled frontier expansion, analytic timing; much
    faster when only counts matter); counts are identical on both.  See
    :mod:`repro.engine`.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        engine: str | None = None,
    ) -> None:
        self.config = config or xset_default()
        if engine is not None and engine != self.config.engine:
            self.config = self.config.with_overrides(engine=engine)

    def plan_for(
        self, pattern: Pattern, induced: bool | None = None
    ) -> MatchingPlan:
        """Generate the matching plan the accelerator would be loaded with."""
        return build_plan(pattern, induced=induced)

    def count(
        self,
        graph: CSRGraph,
        pattern: Pattern,
        induced: bool | None = None,
        plan: MatchingPlan | None = None,
        engine: str | None = None,
    ) -> "SimReport":
        """Count embeddings of ``pattern`` in ``graph`` on this accelerator.

        Returns the simulation report: exact count plus cycles, utilisation
        and memory statistics.  ``engine`` overrides the configured
        execution backend for this run only.
        """
        from ..sim.host import run_on_soc

        if plan is None:
            plan = self.plan_for(pattern, induced=induced)
        config = self.config
        if engine is not None and engine != config.engine:
            config = config.with_overrides(engine=engine)
        return run_on_soc(graph, plan, config)

    def enumerate(
        self, graph: CSRGraph, pattern: Pattern, induced: bool | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield each embedding once (canonical under symmetry breaking).

        Tuples are ordered by plan level; ``plan.order[i]`` says which
        pattern vertex position ``i`` corresponds to.
        """
        plan = build_plan(pattern, induced=induced, collection="enumerate")
        yield from _enum(graph, plan)

    def count_many(
        self,
        graph: CSRGraph,
        patterns: list[Pattern],
        parallel: bool = False,
        mode: str = "process",
        max_workers: int | None = None,
    ) -> dict[str, "SimReport"]:
        """Run several patterns (multi-pattern workloads such as 3MF).

        With ``parallel=True`` the batch runs through a transient
        :class:`~repro.service.QueryService`: the graph is registered
        once, one job per pattern flows through the worker pool (``mode``
        picks process/thread/inline execution) and the reports come back
        in pattern order.  Counts are identical to the sequential path —
        the service runs the same engine via the same functional layer.
        """
        if not parallel:
            return {p.name: self.count(graph, p) for p in patterns}
        from ..service import QueryService

        with QueryService(
            self.config, mode=mode, max_workers=max_workers
        ) as service:
            graph_id = service.register_graph(graph)
            return service.count_many(graph_id, patterns)


def count_motifs3(
    graph: CSRGraph, config: SystemConfig | None = None
) -> dict[str, int]:
    """3-motif finding (3MF): induced triangle and wedge counts.

    Runs the triangle (non-induced == induced for cliques) and the induced
    wedge plan on the accelerator; the host-side transformation is the
    identity here because the wedge plan is already induced.
    """
    accel = XSetAccelerator(config)
    tri, wedge = MOTIF3
    reports = accel.count_many(graph, [tri, wedge])
    return {
        "triangle": reports[tri.name].embeddings,
        "wedge": reports[wedge.name].embeddings,
    }
