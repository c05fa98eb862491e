"""Hardware task execution: functional result + cycle cost of one task.

Each task computes the candidate set for one level of the matching plan.
This module is a thin composition of the two layers in :mod:`repro.engine`:

* the **functional layer** (:func:`repro.engine.functional.expand_task`)
  computes the exact candidate set with the NumPy reference kernels;
* the **temporal layer** (:class:`repro.engine.temporal.TaskCostAnnotator`)
  charges the modelled hardware time — SIU cost terms plus memory stream
  timings — against the shared memory hierarchy state.

Word-stream lengths (BitmapCSR words per set) are pre-computed per graph row
and cached per intermediate set, and the merge boundaries the cost formulas
need are derived from the functional result — the simulator never re-derives
what it already knows, which keeps per-task overhead low.

:class:`TaskOutcome` is defined in :mod:`repro.engine.temporal`;
``repro.sim`` exports it from here, next to the executor that returns it.
"""

from __future__ import annotations

import numpy as np

from ..engine.functional import (
    expand_task,
    row_word_counts,
    set_stream_words,
)
from ..engine.temporal import TaskCostAnnotator, TaskOutcome
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel

__all__ = ["TaskOutcome", "HardwareTaskExecutor"]


def _row_word_counts(graph: CSRGraph, width: int) -> np.ndarray:
    """BitmapCSR words per neighbour row (compat alias for the engine layer)."""
    return row_word_counts(graph, width)


class HardwareTaskExecutor:
    """Executes tasks functionally while charging modelled hardware time."""

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
        self.task_overhead = task_overhead_cycles
        self.stop_level = plan.stop_level
        self._width = siu.bitmap_width
        self._row_words = row_word_counts(graph, self._width)
        self._annotator = TaskCostAnnotator(
            graph,
            siu,
            memory,
            self._row_words,
            task_overhead_cycles=task_overhead_cycles,
        )
        # guarded hot-path hook: pinned once at construction so the
        # per-task fast path below is a single None check when disabled
        self._obs = _obs.current()

    def set_words(self, vertices: np.ndarray) -> int:
        """Stream length in BitmapCSR words of an arbitrary sorted set."""
        return set_stream_words(vertices, self._width)

    def execute(self, task, pe: int, now: float) -> TaskOutcome:
        """Run one task on PE ``pe`` starting at time ``now``."""
        expansion = expand_task(self.graph, self.plan, task)
        outcome = self._annotator.annotate(expansion, task, pe, now)
        if self._obs is not None:
            self._obs.level_add(
                task.level,
                tasks=1,
                elements=outcome.words_in,
                comparisons=outcome.comparisons,
            )
        return outcome
