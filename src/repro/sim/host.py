"""Rocket-core host model: offload flow and over-deep pattern splitting.

The paper's §4.2 highlights two host responsibilities beyond configuration:

* **Result collection** — IEP expressions (e.g. the diamond's ``A(A-1)/2``)
  are evaluated on the RISC-V core; in this model that logic lives in the
  plan's collection mode and the host merely accounts a per-result cost.
* **Arbitrary pattern depth** — when a plan is deeper than the hardware
  scheduler supports, the CPU executes the initial plan levels in software
  and hands the resulting partial embeddings to the PEs as start tasks.

The host's software execution is charged with a simple scalar-merge cost
model (comparisons × cycles-per-comparison at the shared 1 GHz clock), which
is also the primitive the CPU baseline models build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.config import SystemConfig
from ..engine.base import get_engine
from ..engine.functional import root_tasks, walk_tasks
from ..obs import context as _obs
from ..graph.csr import CSRGraph
from ..patterns.plan import MatchingPlan
from ..sched.task import SimTask
from ..setops.reference import merge_comparison_count
from .report import SimReport
from .rocc import RoCCInterface

__all__ = ["HostModel", "run_on_soc"]

#: host cycles per scalar merge comparison (in-order Rocket pipeline)
HOST_CYCLES_PER_COMPARISON = 2.0
#: host cycles to issue one RoCC instruction
HOST_ROCC_ISSUE_CYCLES = 4.0


@dataclass
class _PrefixResult:
    tasks: list[SimTask]
    host_cycles: float


class HostModel:
    """The Rocket core driving one X-SET accelerator."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.rocc = RoCCInterface(config)

    def _software_prefix(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        hw_start_level: int,
        roots=None,
    ) -> _PrefixResult:
        """Execute plan levels below ``hw_start_level`` on the CPU."""
        cycles = 0.0
        tasks: list[SimTask] = []
        for task, expansion in walk_tasks(
            graph, plan, hw_start_level - 1, roots
        ):
            # the host keeps its sets as plain vertex arrays
            task.raw_words = int(expansion.result.size)
            for rec in expansion.ops:
                na, nout = int(rec.a.size), int(rec.out.size)
                cycles += HOST_CYCLES_PER_COMPARISON * merge_comparison_count(
                    na,
                    int(rec.b.size),
                    nout if rec.kind == "set_int" else na - nout,
                )
            if task.level == hw_start_level - 1:
                tasks.extend(
                    SimTask(level=hw_start_level, vertex=v, parent=task)
                    for v in expansion.filtered.tolist()
                )
        return _PrefixResult(tasks=tasks, host_cycles=cycles)

    def run(
        self, graph: CSRGraph, plan: MatchingPlan, roots=None
    ) -> SimReport:
        """Full offload flow: configure → (prefix) → run → poll.

        ``roots`` restricts matching to search trees rooted at the given
        data vertices (used by the cluster layer's per-shard subqueries);
        the default ``None`` roots one tree per (label-valid) vertex.
        """
        self.rocc.config_graph(graph)
        self.rocc.config_tasklist(plan)
        host_cycles = 3 * HOST_ROCC_ISSUE_CYCLES
        start_tasks = None
        stop_level = plan.stop_level
        if stop_level > self.config.max_hw_levels:
            hw_start = stop_level - self.config.max_hw_levels + 1
            t0 = perf_counter()
            with _obs.span("host.prefix", hw_start_level=hw_start):
                prefix = self._software_prefix(graph, plan, hw_start, roots)
            ob = _obs.current()
            if ob is not None:
                ob.add_stage("host_prefix", perf_counter() - t0)
            start_tasks = prefix.tasks
            host_cycles += prefix.host_cycles
        elif roots is not None:
            start_tasks = root_tasks(graph, plan, roots)
        self.rocc.run(start_tasks=start_tasks)
        report = self.rocc.poll()
        report.host_cycles += host_cycles
        return report


def run_on_soc(
    graph: CSRGraph,
    plan: MatchingPlan,
    config: SystemConfig,
    roots: np.ndarray | None = None,
) -> SimReport:
    """Run a workload on the configured execution engine.

    ``config.engine`` selects the backend: the default ``event`` engine is
    the full SoC flow (host + RoCC + event-driven accelerator simulation);
    ``batched`` runs the vectorised frontier engine with analytic timing.
    ``engine="auto"`` resolves here to the static fastest-first preference
    (codegen > batched > event) — the query service resolves auto earlier,
    per query, against its live cost predictor and breaker board.
    ``roots`` optionally restricts matching to the given root vertices
    (every engine supports it; the cluster layer's per-shard subqueries
    are built on exactly this).
    """
    engine = config.engine
    if engine == "auto":
        from ..sched.adaptive.selector import auto_engine

        engine = auto_engine()
        # ship the resolved backend downstream: engines and reports must
        # never see the "auto" sentinel
        config = config.with_overrides(engine=engine)
    if roots is None:
        return get_engine(engine).run(graph, plan, config)
    return get_engine(engine).run(graph, plan, config, roots=roots)
