"""The ``event`` backend: the cycle-approximate event-driven simulator.

This is the full SoC flow the library has always modelled — Rocket-core
host (result collection, over-deep pattern splitting), RoCC instruction
protocol, and the heap-driven multi-PE accelerator simulation with shared
memory contention.  Reports are byte-for-byte identical to the
pre-engine-layer code path; the engine class is a thin adapter that gives
that path an engine name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs import context as _obs
from .base import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..graph.csr import CSRGraph
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["EventEngine"]


class EventEngine(Engine):
    """Event-driven cycle-approximate execution (host + RoCC + PEs)."""

    name = "event"
    description = (
        "cycle-approximate event-driven SoC simulation "
        "(host + RoCC + PEs) — the reference for architectural studies"
    )

    def run(
        self,
        graph: "CSRGraph",
        plan: "MatchingPlan",
        config: "SystemConfig",
        roots=None,
    ) -> "SimReport":
        from ..sim.host import HostModel

        with _obs.span(
            "engine.event", graph=graph.name, pattern=plan.pattern.name
        ):
            return HostModel(config).run(graph, plan, roots=roots)
