"""Event-driven multi-PE accelerator simulator (paper §7.1 methodology).

The simulator advances a heap of task-completion events.  Each PE owns a
scheduler and ``sius_per_pe`` SIU slots; whenever a slot frees (or new work
arrives) the PE asks its scheduler for the next ready task and replays it
inline from its chunk's functional trace (:class:`HardwareTaskExecutor`
locates a start task's chunk, tracing it on demand) — the loop only
charges memory and time — and commits the completion back: spawning
children, accumulating counts and releasing the slot.
Memory (private caches, shared cache, DRAM channels) is shared mutable
state, so PEs contend for bandwidth exactly when their events interleave.
"""

from __future__ import annotations

import heapq
import time as _time

from ..core.config import SystemConfig
from ..engine.functional import root_tasks
from ..engine.temporal import TASK_COMMIT_CYCLES
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..sched.policies import make_scheduler
from ..sched.task import SimTask
from ..siu.models import make_siu
from .hwexec import HardwareTaskExecutor
from .report import SimReport
from .trace import ActivityTrace

__all__ = ["AcceleratorSim"]


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
            graph, plan, self.siu,
            task_overhead_cycles=config.task_overhead_cycles,
        )
        #: one task scheduler per PE
        self.schedulers = [
            make_scheduler(config.scheduler, **config.scheduler_kwargs())
            for _ in range(config.num_pes)
        ]

    # -- root distribution ----------------------------------------------------

    def _distribute_roots(
        self, start_tasks: list[SimTask] | None
    ) -> None:
        if start_tasks is None:
            start_tasks = root_tasks(self.graph, self.plan)
        buckets: list[list[SimTask]] = [[] for _ in self.schedulers]
        if self.config.root_partition == "degree-balanced":
            # greedy bin packing: heaviest subtrees first, least-loaded PE.
            # Root work is roughly proportional to root degree.
            degrees = self.graph.degrees
            load = [0.0] * len(buckets)
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
                buckets[i % len(buckets)].append(task)
        self.executor.start(start_tasks)
        for sched, bucket in zip(self.schedulers, buckets):
            sched.push_roots(bucket)

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
        config, memory, executor = self.config, self.memory, self.executor
        report = SimReport(
            config_name=config.name,
            graph_name=self.graph.name,
            pattern_name=self.plan.pattern.name,
            frequency_ghz=config.frequency_ghz,
            num_sius=config.num_pes * config.sius_per_pe,
        )
        # a task's replay: stream its operands through the PE's memory,
        # charge each set operation ``max(first word latencies) + max(issue,
        # memory occupancy) + pipeline depth``, store its raw set for its
        # descendants, and hold the SIU for all but the last pipeline tail
        costs = executor.costs
        steps, stop, dispatch = costs.steps, costs.stop, costs.dispatch
        row_addr, row_words = costs.row_addr, costs.row_words
        throughput, depth = costs.throughput, costs.depth
        tail_depth = costs.tail_depth
        locate, stream_read = executor.locate, memory.stream_read
        stream_write, allocate = memory.stream_write, memory.allocate_scratch
        heappush, heappop = heapq.heappush, heapq.heappop
        ob, trace = _obs.current(), self.trace
        schedulers = self.schedulers
        num_pes = len(schedulers)
        busy = [0.0] * num_pes
        # events are ``(time, seq, pe, task, first_row, vertices)``: with
        # ``task`` None an SIU of ``pe`` frees; otherwise ``task`` completes
        # and spawns the child run ``vertices`` (None for none), rows from
        # ``first_row`` on in its chunk.  Each PE starts with one SIU held
        # by a free event at time 0, ordered (negative sequence numbers)
        # before every task event.
        free = [config.sius_per_pe - 1] * num_pes
        heap = [(0.0, pe - num_pes, pe, None, 0, None)
                for pe in range(num_pes)]
        seq = set_ops = comparisons = words_in = words_out = count = 0
        now = 0.0
        while heap:
            now, _, pe, task, first, kids = heappop(heap)
            sched = schedulers[pe]
            if task is None:
                free[pe] += 1
            else:
                sched.on_complete(task)
                if kids is not None:
                    level = task.level + 1
                    sched.push_children(task, [
                        SimTask(level, v, task, row)
                        for row, v in enumerate(kids.tolist(), first)
                    ])
            while free[pe]:
                task = sched.pop()
                if task is None:
                    break
                stall = sched.pending_stall
                if stall:
                    sched.pending_stall = 0
                start = now + sched.dispatch_overhead + stall
                if task.row < 0:
                    locate(task)
                chunk, row, level = task.chunk, task.row, task.level
                mode, source, ops = steps[level]
                issue, comps, counts, raw_words, children = chunk._views[level]
                emb = task.embedding
                elapsed = dispatch
                if mode == "neighbors":
                    u = emb[source]
                    src_addr, n_in = row_addr[u], row_words[u]
                else:  # an ancestor's set, back out of the candidate buffer
                    anc = task.ancestor(source)
                    src_addr, n_in = anc.scratch_addr, anc.raw_words
                first_a, stream_a = stream_read(
                    start + elapsed, pe, src_addr, n_in
                )
                if not ops:
                    # a pure load or a reused set: stream it through the unit
                    scan = -(-n_in // throughput)
                    elapsed += first_a + (
                        scan if scan > stream_a else stream_a
                    )
                    n_comp = 0
                    tail = 0.0
                else:
                    n_comp = comps[row]
                    for p, op_issue in zip(ops, issue):
                        u = emb[p]
                        wb = row_words[u]
                        first_b, stream_b = stream_read(
                            start + elapsed, pe, row_addr[u], wb
                        )
                        n_in += wb
                        cycles = op_issue[row]
                        if stream_a > cycles:
                            cycles = stream_a
                        if stream_b > cycles:
                            cycles = stream_b
                        elapsed += (
                            (first_b if first_b > first_a else first_a)
                            + cycles
                            + depth
                        )
                        # later ops read the previous result from the
                        # unit's local buffer: no A-side memory latency
                        first_a = stream_a = 0.0
                    set_ops += len(ops)
                    tail = tail_depth
                if level == stop:
                    count += counts[row]
                    first, kids = -1, None
                else:
                    task.raw_words = n_out = raw_words[row]
                    if n_out:
                        addr = task.scratch_addr = allocate(pe, n_out)
                        elapsed += stream_write(
                            start + elapsed, pe, addr, n_out
                        )[1]
                        words_out += n_out
                    first, end = children[row], children[row + 1]
                    kids = (
                        chunk.vertices[level + 1][first:end]
                        if end > first else None
                    )
                elapsed += TASK_COMMIT_CYCLES
                occupancy = elapsed - tail
                if occupancy < 1.0:
                    occupancy = 1.0
                finish = start + elapsed
                free[pe] -= 1
                busy[pe] += occupancy
                if trace is not None:
                    trace.record(pe, level, start, finish)
                if ob is not None:
                    ob.level_add(level, tasks=1, elements=n_in,
                                 comparisons=n_comp)
                comparisons += n_comp
                words_in += n_in
                heappush(heap, (start + occupancy, seq, pe, None, 0, None))
                heappush(heap, (finish, seq + 1, pe, task, first, kids))
                seq += 2

        if not all(sched.drained for sched in schedulers):
            raise SimulationError(
                "scheduler finished with work outstanding — "
                "dependency tracking bug"
            )

        report.cycles = now
        report.tasks = seq // 2
        report.set_ops = set_ops
        report.comparisons = comparisons
        report.words_in = words_in
        report.words_out = words_out
        report.embeddings = count
        report.siu_busy_cycles = sum(busy)
        report.per_pe_busy = busy
        report.peak_active_task_sets = max(
            getattr(sched, "peak_active_sets", 0) for sched in schedulers
        )
        for cache in memory.private:
            report.private_hits += cache.stats.hits
            report.private_misses += cache.stats.misses
        report.shared_hits = memory.shared.stats.hits
        report.shared_misses = memory.shared.stats.misses
        report.dram_bytes = memory.dram.stats.bytes_transferred
        report.wall_seconds = _time.perf_counter() - t_wall
        if ob is not None:
            ob.add_stage(
                "event_replay", report.wall_seconds - executor.trace_seconds
            )
        return report
