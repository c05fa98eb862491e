"""Hardware task execution: trace a chunk once, then replay it task by task.

A task's candidate set and its SIU cost do not depend on the clock or the
cache state, so they are not worked out per task: the **functional
layer** traces a chunk of start tasks' subtrees in bulk NumPy
(:func:`repro.engine.functional.trace_chunk`, priced by
:meth:`~repro.engine.temporal.TaskCostAnnotator.op_costs`), and the
**temporal layer** replays one task per :meth:`execute` against the
shared memory hierarchy (:meth:`~repro.engine.temporal.TaskCostAnnotator.
annotate`).  Start tasks are traced lazily in distribution order, a chunk
sized from the previous one; a hand-made task whose parent has a row is
looked up among the parent's children, any other is a chunk of one.

:class:`TaskOutcome` is defined in :mod:`repro.engine.temporal`;
``repro.sim`` exports it from here, next to the executor that returns it.
"""

from __future__ import annotations

from itertools import takewhile
from time import perf_counter

import numpy as np

from ..engine.functional import ChunkTrace, trace_chunk
from ..engine.temporal import TaskCostAnnotator, TaskOutcome
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel, block_keys

__all__ = ["TaskOutcome", "HardwareTaskExecutor"]

#: start tasks in a run's first chunk
TRACE_FIRST_CHUNK = 64
#: tasks a chunk aims at; the next chunk's start count is scaled to it
TRACE_CHUNK_TASKS = 1 << 13


class HardwareTaskExecutor:
    """Executes tasks by replaying their chunk's trace against the clock."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        siu: SIUCostModel,
        memory: MemoryHierarchy,
        task_overhead_cycles: int = 0,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.siu = siu
        self.memory = memory
        self._width = siu.bitmap_width
        self._annotator = TaskCostAnnotator(
            graph, plan, siu, memory, task_overhead_cycles
        )
        # guarded hot-path hook: pinned once at construction so the
        # per-task fast path below is a single None check when disabled
        self._obs = _obs.current()
        self.start([])

    def set_words(self, vertices: np.ndarray) -> int:
        """Stream length in BitmapCSR words of an arbitrary sorted set."""
        return int(block_keys(vertices, self._width).size)

    def start(self, tasks: list) -> None:
        """Take a run's start tasks in distribution order; each is traced,
        with the chunk that follows it, when it is first executed."""
        self._starts = list(tasks)
        self._pending = {t.task_id for t in self._starts}
        for t in self._starts:
            t.chunk, t.row = None, -1  # a trace of an earlier run is stale
        self._next = 0
        self._chunk = TRACE_FIRST_CHUNK

    def execute(self, task, pe: int, now: float) -> TaskOutcome:
        """Run one task on PE ``pe`` starting at time ``now``."""
        if task.row < 0:
            self._locate(task)
        outcome = self._annotator.annotate(task, pe, now)
        if self._obs is not None:
            self._obs.level_add(
                task.level,
                tasks=1,
                elements=outcome.words_in,
                comparisons=outcome.comparisons,
            )
        return outcome

    def _locate(self, task) -> None:
        """Give ``task`` a chunk and row, tracing where none has one."""
        parent = task.parent
        if task.chunk is not None:
            task.row = task.chunk.child_row(parent.level, parent.row,
                                            task.vertex)
        if task.row < 0 and task.task_id not in self._pending:
            self._trace([task])
        while task.row < 0:  # trace up to it, in distribution order
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
                self._annotator.op_costs,
            )
        if self._obs is not None:
            self._obs.add_stage("event_trace", perf_counter() - t0)
        for row, t in enumerate(group):
            t.chunk, t.row = chunk, row
        return chunk
