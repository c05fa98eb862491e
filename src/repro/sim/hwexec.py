"""Hardware task execution: trace a chunk once, then replay it task by task.

A task's candidate set and its SIU cost do not depend on the clock or the
cache state, so they are not worked out per task: the **functional
layer** traces a chunk of start tasks' subtrees in bulk NumPy
(:func:`repro.engine.functional.trace_chunk`, priced by
:meth:`~repro.engine.temporal.TaskCostAnnotator.op_costs`), and the
**temporal layer**, the simulator's event loop
(:meth:`repro.sim.accelerator.AcceleratorSim._run`), replays one task at a
time against the shared memory hierarchy.  Start tasks are traced lazily
in distribution order, a chunk sized from the previous one; every other
task is spawned with its row of its parent's chunk.
"""

from __future__ import annotations

from itertools import takewhile
from time import perf_counter

from ..engine.functional import ChunkTrace, trace_chunk
from ..engine.temporal import TaskCostAnnotator
from ..graph.csr import CSRGraph
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel

__all__ = ["HardwareTaskExecutor"]

#: start tasks in a run's first chunk
TRACE_FIRST_CHUNK = 64
#: tasks a chunk aims at; the next chunk's start count is scaled to it
TRACE_CHUNK_TASKS = 1 << 13


class HardwareTaskExecutor:
    """Gives a run's start tasks their chunk and row, tracing on demand."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        siu: SIUCostModel,
        task_overhead_cycles: int = 0,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self._width = siu.bitmap_width
        self.costs = TaskCostAnnotator(graph, plan, siu, task_overhead_cycles)
        self.start([])

    def start(self, tasks: list) -> None:
        """Take a run's start tasks in distribution order; each is traced,
        with the chunk that follows it, when it is first located."""
        self._starts = list(tasks)
        for t in self._starts:
            t.chunk, t.row = None, -1  # a trace of an earlier run is stale
        self._next = 0
        self._chunk = TRACE_FIRST_CHUNK
        self._obs = _obs.current()
        #: wall seconds this run has spent tracing
        self.trace_seconds = 0.0

    def locate(self, task) -> None:
        """Give start task ``task`` a chunk and row: trace the chunks of
        start tasks up to it, in distribution order."""
        while task.row < 0:
            lo = self._next
            level = self._starts[lo].level  # one chunk starts at one level
            group = list(takewhile(
                lambda t: t.level == level,
                self._starts[lo : lo + self._chunk],
            ))
            self._next = lo + len(group)
            self._starts[lo : self._next] = [None] * len(group)
            tasks = sum(v.size for v in self._trace(group).vertices)
            scaled = len(group) * TRACE_CHUNK_TASKS // max(tasks, 1)
            self._chunk = max(1, min(4 * len(group), scaled))

    def _trace(self, group: list) -> ChunkTrace:
        t0 = perf_counter()
        with _obs.span("sim.trace", level=group[0].level, starts=len(group)):
            chunk = trace_chunk(
                self.graph, self.plan, group, self._width,
                self.costs.op_costs,
            )
        seconds = perf_counter() - t0
        self.trace_seconds += seconds
        if self._obs is not None:
            self._obs.add_stage("event_trace", seconds)
        for row, t in enumerate(group):
            t.chunk, t.row = chunk, row
        return chunk
