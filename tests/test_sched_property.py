"""Property tests: every scheduler executes every task exactly once.

A synthetic random task tree is pushed through each policy with a simulated
pool of SIU slots; regardless of policy, the set of completed tasks must be
exactly the tree, with no duplicates, and parents must always complete
before their children are dispatched.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import SimTask, make_scheduler
from repro.sched.policies import BarrierFreeScheduler, ShogunScheduler

POLICIES = [
    ("dfs", {"lanes": 2}),
    ("pseudo-dfs", {"window": 3}),
    ("barrier-free", {"num_task_sets": 4, "task_set_width": 2}),
    ("shogun", {"num_task_sets": 4, "task_set_width": 2, "sync_period": 5}),
]


def drive(policy, params, num_roots, fanout_seed, max_level=4, slots=3):
    """Run a random tree to completion; returns execution trace."""
    rng = random.Random(fanout_seed)
    sched = make_scheduler(policy, **params)
    roots = [SimTask(level=1, vertex=v, parent=None) for v in range(num_roots)]
    sched.push_roots(roots)
    in_flight: list[SimTask] = []
    completed: list[SimTask] = []
    completed_ids: set[int] = set()
    guard = 0
    while not sched.drained:
        guard += 1
        assert guard < 100_000, "scheduler livelock"
        while len(in_flight) < slots:
            task = sched.pop()
            if task is None:
                break
            # dependency check: the parent must have completed already
            if task.parent is not None:
                assert task.parent.task_id in completed_ids
            in_flight.append(task)
        assert in_flight, "deadlock: nothing in flight but not drained"
        # complete one random in-flight task
        task = in_flight.pop(rng.randrange(len(in_flight)))
        sched.on_complete(task)
        completed.append(task)
        completed_ids.add(task.task_id)
        if task.level < max_level:
            # deterministic fanout from tree position so every policy
            # explores the same tree regardless of completion order
            n_children = hash((task.embedding, task.level)) % 4
            if n_children:
                kids = [
                    SimTask(level=task.level + 1, vertex=i, parent=task)
                    for i in range(n_children)
                ]
                sched.push_children(task, kids)
    return completed


@pytest.mark.parametrize("policy,params", POLICIES)
@given(num_roots=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_all_tasks_complete_exactly_once(policy, params, num_roots, seed):
    completed = drive(policy, params, num_roots, seed)
    ids = [t.task_id for t in completed]
    assert len(ids) == len(set(ids))  # nothing executed twice
    # every spawned task completed: reconstruct expectation by replay
    assert len(completed) >= num_roots


@pytest.mark.parametrize("policy,params", POLICIES)
def test_identical_task_sets_across_policies(policy, params):
    """All policies execute the same deterministic tree."""
    baseline = drive("barrier-free", {"num_task_sets": 99}, 5, 42)
    got = drive(policy, params, 5, 42)
    # embeddings identify tree nodes independently of execution order
    assert sorted(t.embedding for t in got) == sorted(
        t.embedding for t in baseline
    )


# -- the barrier-free dispatch order against its rotate-and-scan oracle -----


def rotate_and_scan_pop(self):
    """``BarrierFreeScheduler.pop`` as first written: rotate each level's
    deque one set at a time until a set with a pending task and free
    spawn width comes to the front."""
    while self._top > 0 and not self._levels[self._top]:
        self._top -= 1
    for level in range(self._top, -1, -1):
        sets = self._levels[level]
        for _ in range(len(sets)):
            ts = sets[0]
            if ts.retired:
                sets.popleft()
                continue
            if ts.ready and ts.in_flight < self.task_set_width:
                task = ts.pop()
                sets.rotate(-1)
                self._dispatched()
                return task
            sets.rotate(-1)
    return None


class OracleBarrierFree(BarrierFreeScheduler):
    pop = rotate_and_scan_pop


class OracleShogun(ShogunScheduler):
    def pop(self):
        if self._draining:
            return None
        return rotate_and_scan_pop(self)


#: one scheduler call: push roots, pop, or complete an in-flight task
#: (``arg`` picks which, and how many children it then spawns)
ORDER_OPS = st.lists(
    st.tuples(st.sampled_from(["roots", "pop", "pop", "complete"]),
              st.integers(0, 1_000)),
    max_size=120,
)


def dispatch_order(cls, params, ops, max_level=5):
    """Interpret ``ops`` against a fresh ``cls``; returns every pop's task
    (by embedding, None when blocked), the peak of active task sets and
    the shogun stall owed.  The stream is drained at the end."""
    sched = cls(**params)
    in_flight, order, roots = [], [], 0

    def complete(task, arg):
        sched.on_complete(task)
        n = (arg // 7) % 5 if task.level < max_level else 0
        if n:
            sched.push_children(task, [
                SimTask(level=task.level + 1, vertex=i, parent=task)
                for i in range(n)
            ])

    def pop():
        task = sched.pop()
        order.append(None if task is None else task.embedding)
        if task is not None:
            in_flight.append(task)
        return task

    for kind, arg in ops:
        if kind == "roots":
            sched.push_roots([
                SimTask(level=1, vertex=roots + i, parent=None)
                for i in range(arg % 4 + 1)
            ])
            roots += arg % 4 + 1
        elif kind == "pop":
            pop()
        elif in_flight:
            complete(in_flight.pop(arg % len(in_flight)), arg)
    while not sched.drained:
        while pop() is not None:
            pass
        assert in_flight, "deadlock: nothing in flight but not drained"
        complete(in_flight.pop(0), 0)
    return order, sched.peak_active_sets, getattr(sched, "pending_stall", 0)


@pytest.mark.parametrize("cls,oracle", [
    (BarrierFreeScheduler, OracleBarrierFree),
    (ShogunScheduler, OracleShogun),
])
@given(
    ops=ORDER_OPS,
    num_task_sets=st.integers(1, 4),
    task_set_width=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_pop_keeps_the_rotate_and_scan_order(
    cls, oracle, ops, num_task_sets, task_set_width
):
    params = {"num_task_sets": num_task_sets,
              "task_set_width": task_set_width}
    if cls is ShogunScheduler:
        params["sync_period"] = 5
    assert dispatch_order(cls, params, ops) == dispatch_order(
        oracle, params, ops
    )
