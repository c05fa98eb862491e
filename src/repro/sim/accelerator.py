"""Event-driven multi-PE accelerator simulator (paper §7.1 methodology).

The simulator advances a heap of task-completion events.  Each PE owns a
scheduler and ``sius_per_pe`` SIU slots; whenever a slot frees (or new work
arrives) the PE asks its scheduler for the next ready task, has
:class:`HardwareTaskExecutor` replay it from its chunk's functional trace
— this loop only charges memory and time — and commits the completion
back: spawning children, accumulating counts and releasing the slot.
Memory (private caches, shared cache, DRAM channels) is shared mutable
state, so PEs contend for bandwidth exactly when their events interleave.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field

import numpy as np

from ..core.config import SystemConfig
from ..engine.functional import root_tasks
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..sched.policies import SchedulerBase, make_scheduler
from ..sched.task import SimTask
from ..siu.models import make_siu
from .hwexec import HardwareTaskExecutor
from .report import SimReport
from .trace import ActivityTrace

__all__ = ["AcceleratorSim"]


@dataclass
class _PEState:
    scheduler: SchedulerBase
    free_sius: int
    busy_cycles: float = 0.0
    count: int = 0


class AcceleratorSim:
    """One simulated run of a GPM workload on a configured accelerator."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        config: SystemConfig,
        collect_trace: bool | None = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        # default: collect the PE timeline exactly when an observation is
        # active (repro.obs); explicit True/False always wins
        if collect_trace is None:
            collect_trace = _obs.enabled()
        self.trace: ActivityTrace | None = (
            ActivityTrace(config.num_pes, config.sius_per_pe)
            if collect_trace
            else None
        )
        self.memory = MemoryHierarchy(config.memory_config())
        self.siu = make_siu(
            config.siu_kind, config.segment_width, config.bitmap_width
        )
        self.executor = HardwareTaskExecutor(
            graph,
            plan,
            self.siu,
            self.memory,
            task_overhead_cycles=config.task_overhead_cycles,
        )
        self._pes = [
            _PEState(
                scheduler=make_scheduler(
                    config.scheduler, **config.scheduler_kwargs()
                ),
                free_sius=config.sius_per_pe,
            )
            for _ in range(config.num_pes)
        ]

    # -- root distribution ----------------------------------------------------

    def _distribute_roots(
        self, start_tasks: list[SimTask] | None
    ) -> None:
        if start_tasks is None:
            start_tasks = root_tasks(self.graph, self.plan)
        buckets: list[list[SimTask]] = [[] for _ in self._pes]
        if self.config.root_partition == "degree-balanced":
            # greedy bin packing: heaviest subtrees first, least-loaded PE.
            # Root work is roughly proportional to root degree.
            degrees = self.graph.degrees
            load = [0.0] * len(self._pes)
            start_tasks = sorted(
                start_tasks,
                key=lambda t: -int(degrees[t.vertex])
                if t.vertex < len(degrees)
                else 0,
            )
            for task in start_tasks:
                target = min(range(len(load)), key=load.__getitem__)
                buckets[target].append(task)
                load[target] += float(degrees[task.vertex]) + 1.0
        else:
            for i, task in enumerate(start_tasks):
                buckets[i % len(self._pes)].append(task)
        self.executor.start(start_tasks)
        for pe, bucket in zip(self._pes, buckets):
            pe.scheduler.push_roots(bucket)

    # -- main loop ------------------------------------------------------------

    def run(self, start_tasks: list[SimTask] | None = None) -> SimReport:
        """Simulate to completion; returns the metrics report."""
        with _obs.span(
            "sim.accelerator",
            graph=self.graph.name,
            pattern=self.plan.pattern.name,
            pes=self.config.num_pes,
            sius_per_pe=self.config.sius_per_pe,
        ):
            report = self._run(start_tasks)
        ob = _obs.current()
        if ob is not None and self.trace is not None:
            ob.add_activity(self.trace)
        return report

    def _run(self, start_tasks: list[SimTask] | None = None) -> SimReport:
        t_wall = _time.perf_counter()
        self._distribute_roots(start_tasks)
        report = SimReport(
            config_name=self.config.name,
            graph_name=self.graph.name,
            pattern_name=self.plan.pattern.name,
            frequency_ghz=self.config.frequency_ghz,
            num_sius=self.config.num_pes * self.config.sius_per_pe,
        )
        heap: list = []
        seq = 0
        pes, execute, trace = self._pes, self.executor.execute, self.trace
        heappush = heapq.heappush

        def dispatch(pe_idx: int, now: float) -> None:
            nonlocal seq
            pe = pes[pe_idx]
            sched = pe.scheduler
            while pe.free_sius > 0:
                task = sched.pop()
                if task is None:
                    return
                stall = getattr(sched, "pending_stall", 0)
                if stall:
                    sched.pending_stall = 0
                start = now + sched.dispatch_overhead + stall
                outcome = execute(task, pe_idx, start)
                finish = start + outcome.elapsed
                release = start + outcome.occupancy
                pe.free_sius -= 1
                pe.busy_cycles += outcome.occupancy
                if trace is not None:
                    trace.record(pe_idx, task.level, start, finish)
                pe.count += outcome.count_delta
                report.tasks += 1
                report.set_ops += outcome.set_ops
                report.comparisons += outcome.comparisons
                report.words_in += outcome.words_in
                report.words_out += outcome.words_out
                heappush(heap, (release, seq, "free", pe_idx, None, None))
                heappush(heap, (finish, seq + 1, "done", pe_idx, task, outcome))
                seq += 2

        now = 0.0
        for pe_idx in range(len(self._pes)):
            dispatch(pe_idx, now)
        heappop = heapq.heappop
        while heap:
            now, _, kind, pe_idx, task, outcome = heappop(heap)
            pe = pes[pe_idx]
            if kind == "free":
                pe.free_sius += 1
            else:
                pe.scheduler.on_complete(task)
                if len(outcome.children):
                    level = task.level + 1
                    kids = [
                        SimTask(level, v, task, row)
                        for row, v in enumerate(
                            outcome.children.tolist(), outcome.child_row
                        )
                    ]
                    pe.scheduler.push_children(task, kids)
            dispatch(pe_idx, now)

        for pe in self._pes:
            if not pe.scheduler.drained:
                raise SimulationError(
                    "scheduler finished with work outstanding — "
                    "dependency tracking bug"
                )

        report.cycles = now
        report.embeddings = sum(pe.count for pe in self._pes)
        report.siu_busy_cycles = sum(pe.busy_cycles for pe in self._pes)
        report.per_pe_busy = [pe.busy_cycles for pe in self._pes]
        report.peak_active_task_sets = max(
            (
                getattr(pe.scheduler, "peak_active_sets", 0)
                for pe in self._pes
            ),
            default=0,
        )
        for cache in self.memory.private:
            report.private_hits += cache.stats.hits
            report.private_misses += cache.stats.misses
        report.shared_hits = self.memory.shared.stats.hits
        report.shared_misses = self.memory.shared.stats.misses
        report.dram_bytes = self.memory.dram.stats.bytes_transferred
        report.wall_seconds = _time.perf_counter() - t_wall
        return report
