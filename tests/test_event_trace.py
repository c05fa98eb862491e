"""The event engine's functional trace stays small however skewed the graph.

Tracing a whole run at once reproduced every statistic but peaked at
1356 MB on the Table 5 grid (69 MB per task); a hub root's leaf level
alone can hold more candidate-set elements than fit in a cache.  The
trace build therefore gathers at most ``TRACE_BLOCK_ELEMENTS`` elements per
block of rows, and keeps a few compact numbers per task.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.engine.functional import TRACE_BLOCK_ELEMENTS, trace_chunk
from repro.graph import powerlaw_graph
from repro.patterns import PATTERNS, build_plan
from repro.sched.task import SimTask
from repro.sim.hwexec import HardwareTaskExecutor
from repro.siu import make_siu

#: bytes a traced task may retain: its vertex, first child row, raw-set
#: words (or leaf count), comparisons and ~two ops' issue cycles
TASK_BYTES = 32
#: build temporaries allowed per element of the block budget: a block's
#: gathered set, its owners and the masks and index arrays over them
BUILD_BYTES_PER_ELEMENT = 160


def test_hub_trace_is_blocked_and_compact():
    graph = powerlaw_graph(
        3000, avg_degree=12.0, max_degree=900, seed=4, name="hub",
        triangle_boost=0.3,
    )
    hub = int(np.argmax(graph.degrees))
    plan = build_plan(PATTERNS["TT"])
    executor = HardwareTaskExecutor(graph, plan, make_siu("order-aware", 8, 8))
    leaf_elements = []

    def cost(facts):
        if facts.level == plan.stop_level and facts.op == 0:
            leaf_elements.append(int(facts.na.sum()))
        return executor.costs.op_costs(facts)

    trace_chunk(graph, plan, [SimTask(1, hub, None)], 8, cost)  # warm
    leaf_elements.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = trace_chunk(graph, plan, [SimTask(1, hub, None)], 8, cost)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the failure this guards against: a leaf level far over one block,
    # whose unblocked temporaries alone would exceed the build bound
    assert sum(leaf_elements) > 8 * TRACE_BLOCK_ELEMENTS
    assert len(leaf_elements) > 8
    tasks = sum(v.size for v in trace.vertices)
    kept = sum(a.nbytes for arrays in vars(trace).values() for a in arrays)
    assert kept <= TASK_BYTES * tasks
    assert retained - before <= TASK_BYTES * tasks + 64 * 1024
    build = peak - retained
    assert build <= BUILD_BYTES_PER_ELEMENT * TRACE_BLOCK_ELEMENTS
