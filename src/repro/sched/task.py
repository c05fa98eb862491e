"""Task structures of the barrier-free scheduler (paper §6.1, Figure 10).

A :class:`SimTask` is one node of the GPM search tree: it computes the
candidate set for one level given the partial embedding accumulated along
its parent chain.  A :class:`TaskSetState` mirrors the hardware Task Set —
the per-parent bookkeeping record that spawns subtasks from the parent's
candidate buffer with bounded width.
"""

from __future__ import annotations

from collections import deque
from itertools import count as _counter
from typing import Optional

import numpy as np

__all__ = ["SimTask", "TaskSetState"]

_task_ids = _counter()


class SimTask:
    """One search-tree node: match vertex ``vertex`` at level ``level``.

    The simulator writes the candidate set a task computes to the
    candidate buffer at ``scratch_addr`` (``raw_words`` long) so
    descendants can extend it, and reads what the set is off row ``row``
    of the task's functional trace ``chunk`` (-1 until located; children
    start in their parent's chunk).  The per-task functional step stores
    the set itself in ``raw_set``.
    """

    __slots__ = (
        "task_id",
        "level",
        "vertex",
        "parent",
        "embedding",
        "raw_set",
        "raw_words",
        "scratch_addr",
        "task_set",
        "chunk",
        "row",
    )

    def __init__(
        self,
        level: int,
        vertex: int,
        parent: Optional["SimTask"],
        row: int = -1,
    ) -> None:
        self.task_id = next(_task_ids)
        self.level = level
        self.vertex = vertex
        self.parent = parent
        if parent is None:
            self.embedding: tuple[int, ...] = (vertex,)
            self.chunk = None
        else:
            self.embedding = parent.embedding + (vertex,)
            self.chunk = parent.chunk
        self.row = row
        self.raw_set: np.ndarray | None = None
        self.raw_words: int = 0
        self.scratch_addr: int = 0
        self.task_set: TaskSetState | None = None

    def ancestor(self, level: int) -> "SimTask":
        """Walk the parent chain to the task executed at ``level``."""
        node: SimTask = self
        while node.level > level:
            assert node.parent is not None, "ancestor level below root"
            node = node.parent
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimTask(id={self.task_id}, lvl={self.level}, emb={self.embedding})"


class TaskSetState:
    """Hardware Task Set: spawns one parent's subtasks with bounded width.

    ``pending`` holds spawned-but-not-dispatched children (fed from the
    candidate buffer / fast-spawning register); ``in_flight`` counts children
    currently executing.  The set retires when both are empty, releasing its
    hardware slot.
    """

    __slots__ = ("parent", "pending", "in_flight", "level", "exempt")

    def __init__(
        self,
        parent: SimTask | None,
        children: list[SimTask],
        exempt: bool = False,
    ) -> None:
        self.parent = parent
        self.pending: deque[SimTask] = deque(children)
        self.in_flight = 0
        self.level = children[0].level if children else 0
        self.exempt = exempt  # the root stream does not occupy a HW slot
        for child in children:
            child.task_set = self

    @property
    def ready(self) -> bool:
        return bool(self.pending)

    @property
    def retired(self) -> bool:
        return not self.pending and self.in_flight == 0

    def pop(self) -> SimTask:
        self.in_flight += 1
        return self.pending.popleft()

    def complete_one(self) -> None:
        self.in_flight -= 1
        assert self.in_flight >= 0, "task-set accounting underflow"
