"""The four task-scheduling policies compared in the paper.

* :class:`DFSScheduler` — conventional single-task-in-flight depth-first
  execution (FlexMiner-style PEs, Figure 3b).
* :class:`PseudoDFSScheduler` — FINGERS' windowed sibling parallelism with a
  synchronisation barrier after every window (Figure 3c).
* :class:`BarrierFreeScheduler` — X-SET's dependency-driven out-of-order
  dispatch across all levels, with Task-Set capacity and spawn-width limits
  (§6, Figure 10).
* :class:`ShogunScheduler` — Shogun's incremental out-of-order scheduler:
  barrier-free-like dispatch, but with the periodic locality-mode
  synchronisation and centralized-dispatch overhead the paper describes.

Every scheduler manages tasks for one PE; the simulator calls ``push_*`` to
make work available, ``pop`` when an SIU frees up, and ``on_complete`` when
a task retires.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

from ..errors import SchedulerError
from .task import SimTask, TaskSetState

__all__ = [
    "SchedulerBase",
    "DFSScheduler",
    "PseudoDFSScheduler",
    "BarrierFreeScheduler",
    "ShogunScheduler",
    "make_scheduler",
]


class SchedulerBase(ABC):
    """Per-PE task scheduler interface."""

    name = "base"
    #: extra dispatch cycles the PE adds per pop (centralised schedulers)
    dispatch_overhead = 0
    #: cycles of stall the PE must insert at the next dispatch (the PE
    #: resets it after reading it)
    pending_stall = 0

    def __init__(self) -> None:
        self.in_flight = 0
        self.completed = 0

    @abstractmethod
    def push_roots(self, tasks: list[SimTask]) -> None:
        """Enqueue the PE's root-level tasks."""

    @abstractmethod
    def push_children(self, parent: SimTask, children: list[SimTask]) -> None:
        """Make ``parent``'s spawned subtasks available."""

    @abstractmethod
    def pop(self) -> SimTask | None:
        """Next task to dispatch, or None if the policy blocks issue now."""

    def on_complete(self, task: SimTask) -> None:
        """Bookkeeping when ``task`` finishes (before push_children)."""
        self.in_flight -= 1
        self.completed += 1
        if self.in_flight < 0:
            raise SchedulerError("in-flight count underflow")

    def _dispatched(self) -> None:
        self.in_flight += 1

    @property
    @abstractmethod
    def pending(self) -> int:
        """Tasks waiting to be dispatched."""

    @property
    def drained(self) -> bool:
        return self.pending == 0 and self.in_flight == 0


class DFSScheduler(SchedulerBase):
    """Conventional depth-first scheduling: one DFS walk per SIU lane.

    With ``lanes == 1`` this is the classic single-SIU PE of Figure 3b (one
    task in flight, strict DFS order).  With more lanes each SIU owns a
    disjoint set of root subtrees and walks them sequentially — subtree-level
    parallelism only, no work sharing, so imbalanced subtrees leave lanes
    idle (the ablation's "conventional DFS" configuration).
    """

    name = "dfs"

    def __init__(self, lanes: int = 1) -> None:
        super().__init__()
        if lanes < 1:
            raise SchedulerError("lanes must be >= 1")
        self.lanes = lanes
        self._stacks: list[list[SimTask]] = [[] for _ in range(lanes)]
        self._busy = [False] * lanes
        self._lane_of: dict[int, int] = {}

    def push_roots(self, tasks: list[SimTask]) -> None:
        for i, task in enumerate(tasks):
            self._lane_of[task.task_id] = i % self.lanes
        for lane in range(self.lanes):
            lane_tasks = [
                t for i, t in enumerate(tasks) if i % self.lanes == lane
            ]
            self._stacks[lane].extend(reversed(lane_tasks))

    def push_children(self, parent: SimTask, children: list[SimTask]) -> None:
        lane = self._lane_of.get(parent.task_id, 0)
        for child in children:
            self._lane_of[child.task_id] = lane
        self._stacks[lane].extend(reversed(children))

    def pop(self) -> SimTask | None:
        for lane in range(self.lanes):
            if not self._busy[lane] and self._stacks[lane]:
                task = self._stacks[lane].pop()
                self._busy[lane] = True
                self._dispatched()
                return task
        return None

    def on_complete(self, task: SimTask) -> None:
        super().on_complete(task)
        lane = self._lane_of.pop(task.task_id, 0)
        self._busy[lane] = False

    @property
    def pending(self) -> int:
        return sum(len(s) for s in self._stacks)


class PseudoDFSScheduler(SchedulerBase):
    """FINGERS-style windowed scheduling with inter-window barriers.

    Up to ``window`` sibling tasks (same level, consecutive on the DFS
    stack) execute concurrently; the next window cannot start until every
    task of the current one has completed.
    """

    name = "pseudo-dfs"

    def __init__(self, window: int = 4) -> None:
        super().__init__()
        if window < 1:
            raise SchedulerError("window must be >= 1")
        self.window = window
        self._stack: list[SimTask] = []
        self._window_tasks: deque[SimTask] = deque()

    def push_roots(self, tasks: list[SimTask]) -> None:
        self._stack.extend(reversed(tasks))

    def push_children(self, parent: SimTask, children: list[SimTask]) -> None:
        self._stack.extend(reversed(children))

    def _refill_window(self) -> None:
        # barrier: previous window must fully drain first
        if self._window_tasks or self.in_flight > 0 or not self._stack:
            return
        level = self._stack[-1].level
        while (
            self._stack
            and len(self._window_tasks) < self.window
            and self._stack[-1].level == level
        ):
            self._window_tasks.append(self._stack.pop())

    def pop(self) -> SimTask | None:
        if not self._window_tasks:
            self._refill_window()
        if not self._window_tasks:
            return None
        self._dispatched()
        return self._window_tasks.popleft()

    @property
    def pending(self) -> int:
        return len(self._stack) + len(self._window_tasks)


class BarrierFreeScheduler(SchedulerBase):
    """X-SET's barrier-free scheduler (paper §6).

    Any dependency-ready task may dispatch to any free SIU.  Structure
    mirrors the hardware: one Task Set per spawning parent (capacity
    ``num_task_sets``, spawn width ``task_set_width``), issue policy
    round-robin inside a level and depth-first across levels.
    """

    name = "barrier-free"

    def __init__(
        self,
        num_task_sets: int = 96,
        task_set_width: int = 4,
        max_levels: int = 16,
    ) -> None:
        super().__init__()
        if num_task_sets < 1 or task_set_width < 1:
            raise SchedulerError("scheduler capacities must be positive")
        self.num_task_sets = num_task_sets
        self.task_set_width = task_set_width
        self._levels: list[deque[TaskSetState]] = [
            deque() for _ in range(max_levels)
        ]
        self._top = 0  # highest level that may hold task sets
        self._active_sets = 0
        self._waiting_spawn: deque[tuple[SimTask, list[SimTask]]] = deque()
        #: peak simultaneously-active task sets (capacity pressure metric)
        self.peak_active_sets = 0

    def push_roots(self, tasks: list[SimTask]) -> None:
        if not tasks:
            return
        ts = TaskSetState(parent=None, children=tasks, exempt=True)
        self._levels[tasks[0].level].append(ts)
        self._top = max(self._top, tasks[0].level)

    def _admit(self, parent: SimTask, children: list[SimTask]) -> None:
        ts = TaskSetState(parent, children)
        active = self._active_sets = self._active_sets + 1
        if active > self.peak_active_sets:
            self.peak_active_sets = active
        level = ts.level
        self._levels[level].append(ts)
        if level > self._top:
            self._top = level

    def push_children(self, parent: SimTask, children: list[SimTask]) -> None:
        if not children:
            return
        if self._active_sets < self.num_task_sets:
            self._admit(parent, children)
        else:
            self._waiting_spawn.append((parent, children))

    def pop(self) -> SimTask | None:
        # depth-first across levels, round-robin inside a level: take the
        # first set of the deepest level with free spawn width, and rotate
        # the deque past it.  A set leaves its deque with its last pending
        # task (it is never eligible again), so every set here has work
        # pending; it retires in on_complete, once that work is done.
        levels = self._levels
        top = self._top
        while top > 0 and not levels[top]:
            top -= 1
        self._top = top
        width = self.task_set_width
        for level in range(top, -1, -1):
            sets = levels[level]
            for j, ts in enumerate(sets):
                if ts.in_flight < width:
                    sets.rotate(-1 - j)
                    ts.in_flight += 1
                    self.in_flight += 1
                    pending = ts.pending
                    task = pending.popleft()
                    if not pending:
                        sets.pop()
                    return task
        return None

    def on_complete(self, task: SimTask) -> None:
        # SchedulerBase.on_complete and TaskSetState.complete_one/retired,
        # spelled out: this runs once per simulated task
        self.in_flight -= 1
        self.completed += 1
        if self.in_flight < 0:
            raise SchedulerError("in-flight count underflow")
        ts = task.task_set
        if ts is None:
            return
        ts.in_flight -= 1
        if ts.in_flight <= 0:
            if ts.in_flight < 0:
                raise SchedulerError("task-set accounting underflow")
            if not ts.pending and not ts.exempt:
                self._active_sets -= 1
                # capacity freed: admit a waiting spawn
                if (
                    self._waiting_spawn
                    and self._active_sets < self.num_task_sets
                ):
                    parent, children = self._waiting_spawn.popleft()
                    self._admit(parent, children)

    @property
    def pending(self) -> int:
        n = sum(len(ts.pending) for lv in self._levels for ts in lv)
        n += sum(len(children) for _, children in self._waiting_spawn)
        return n


class ShogunScheduler(BarrierFreeScheduler):
    """Shogun's incremental OoO scheduler with locality-mode barriers.

    Inherits out-of-order dispatch, but the centralized controller adds a
    per-dispatch overhead and, in locality-aware mode, drains all in-flight
    tasks every ``sync_period`` completions (the synchronisation the paper
    says "essentially restricts parallelism").
    """

    name = "shogun"
    dispatch_overhead = 0

    def __init__(
        self,
        num_task_sets: int = 96,
        task_set_width: int = 4,
        max_levels: int = 16,
        sync_period: int = 256,
        sync_stall: int = 16,
    ) -> None:
        super().__init__(num_task_sets, task_set_width, max_levels)
        self.sync_period = sync_period
        self.sync_stall = sync_stall
        self._since_sync = 0
        self._draining = False

    def on_complete(self, task: SimTask) -> None:
        super().on_complete(task)
        self._since_sync += 1
        if self._since_sync >= self.sync_period:
            self._draining = True
        if self._draining and self.in_flight == 0:
            self._draining = False
            self._since_sync = 0
            self.pending_stall += self.sync_stall

    def pop(self) -> SimTask | None:
        if self._draining:
            return None
        return super().pop()


def make_scheduler(kind: str, **params) -> SchedulerBase:
    """Factory for per-PE schedulers by policy name."""
    kinds = {
        "dfs": DFSScheduler,
        "pseudo-dfs": PseudoDFSScheduler,
        "barrier-free": BarrierFreeScheduler,
        "shogun": ShogunScheduler,
    }
    try:
        cls = kinds[kind]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {kind!r}; choose from {sorted(kinds)}"
        ) from None
    return cls(**params)
