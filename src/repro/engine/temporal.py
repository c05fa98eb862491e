"""Temporal layer: cycle costs charged on top of functional outcomes.

Two cost annotators live here, one per execution style:

:class:`TaskCostAnnotator`
    The exact per-task model the ``event`` engine uses, in two halves.
    :meth:`~TaskCostAnnotator.op_costs` does not depend on the clock: the
    functional trace hands it one set operation's merge facts over a block
    of rows, and it asks the SIU model for every row's issue cycles at
    once.  :meth:`~TaskCostAnnotator.annotate` replays one task in event
    order: it streams the task's word sequences through the (stateful)
    memory hierarchy — mirroring the Order-Aware SIU microarchitecture
    (Figure 8): both input streams fetch in parallel through the private
    cache while the core pipeline consumes them, so one operation costs
    ``max(first word latencies) + max(compute issue, memory occupancy) +
    pipeline depth`` — and stores its raw set.

:func:`annotate_frontier_report`
    The aggregate analytic model the ``batched`` engine uses.  It converts
    per-level word/op totals into cycle estimates assuming perfectly
    load-balanced SIUs and bandwidth-limited DRAM streaming — good enough
    to rank design points in a sweep, and orders of magnitude cheaper than
    event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel
from .functional import FrontierLevel, OpFacts, level_steps, row_word_counts

__all__ = [
    "TASK_DISPATCH_CYCLES",
    "TASK_COMMIT_CYCLES",
    "WORD_BYTES",
    "TaskOutcome",
    "TaskCostAnnotator",
    "annotate_frontier_report",
]

#: fixed cycles for task setup (frame read + operation dispatch, Fig. 10e)
TASK_DISPATCH_CYCLES = 2
#: fixed cycles to commit a result back to the task tree
TASK_COMMIT_CYCLES = 1
#: bytes per stream word (vertex IDs / BitmapCSR words are 32-bit)
WORD_BYTES = 4


@dataclass(slots=True)
class TaskOutcome:
    """What executing one task produced.

    ``elapsed`` is the task's completion latency (when its children become
    ready); ``occupancy`` is how long it blocks the SIU — a fully pipelined
    unit frees up while its last operation drains, so the final operation's
    pipeline-depth tail is latency but not occupancy.
    """

    elapsed: float
    occupancy: float
    count_delta: int
    children: np.ndarray  # vertices to spawn at the next level
    set_ops: int
    comparisons: int
    words_in: int
    words_out: int
    #: trace row of the first child (the others follow it); -1 for leaves
    child_row: int = -1


class TaskCostAnnotator:
    """Exact per-task cycle charging against shared memory state."""

    def __init__(
        self, graph: CSRGraph, plan: MatchingPlan, siu: SIUCostModel,
        memory: MemoryHierarchy, task_overhead_cycles: int = 0,
    ) -> None:
        self.siu = siu
        self.memory = memory
        self.task_overhead = task_overhead_cycles
        self._width = width = siu.bitmap_width
        self._stop = plan.stop_level
        self._steps = [None, *map(level_steps, plan.levels[1:])]
        # indexed per stream by the replay: lists are Python's fastest
        self._row_words = graph.derived(
            ("row_words", width), row_word_counts, graph, width
        ).tolist()
        self._row_addr = (graph.indptr[:-1] + graph.base_address).tolist()
        self._no_children = np.zeros(0, dtype=np.int32)
        # SIU constants the replay reads once per task
        self._dispatch = float(TASK_DISPATCH_CYCLES + task_overhead_cycles)
        self._throughput = siu.throughput
        self._depth = siu.pipeline_depth
        self._tail_depth = (
            float(siu.pipeline_depth) if siu.pipelined_across_ops else 0.0
        )

    def op_costs(self, f: OpFacts) -> tuple[np.ndarray, np.ndarray]:
        """Issue cycles and comparator work of one set operation on every
        row of a trace block: its merge facts scaled from vertices to word
        streams, then the SIU model's cost terms."""
        i_end, j_end, c_a, c_b = f.i_end, f.j_end, f.c_a, f.c_b
        matches = f.matches
        if self._width:
            both = (f.na > 0) & (f.nb > 0)
            ra = np.divide(f.wa, f.na, out=np.zeros(both.size), where=both)
            rb = np.divide(f.wb, f.nb, out=np.zeros(both.size), where=both)

            def scaled(x, cap):  # np.rint rounds ties to even, as round()
                return np.minimum(np.rint(x).astype(np.int64), cap)

            i_end, j_end = scaled(i_end * ra, f.wa), scaled(j_end * rb, f.wb)
            c_a = np.where(both, f.wa + scaled((c_a - f.na) * rb, f.wb), c_a)
            c_b = np.where(both, f.wb + scaled((c_b - f.nb) * ra, f.wa), c_b)
            matches = scaled(
                matches * np.minimum(ra, rb), np.minimum(i_end, j_end)
            )
        cost = self.siu.cost_terms(
            f.wa, f.wb, i_end, j_end, matches, f.kind, c_a=c_a, c_b=c_b
        )
        return cost.issue_cycles, cost.comparisons

    def annotate(self, task, pe: int, now: float) -> TaskOutcome:
        """Replay one traced task (``task.chunk``, ``task.row``): charge
        its streams and SIU time against the shared memory state, then
        store its raw set for its descendants."""
        memory = self.memory
        chunk, row, level = task.chunk, task.row, task.level
        mode, source, ops = self._steps[level]
        issue, comparisons, counts, raw_words, children = chunk._views[level]
        row_addr, row_words = self._row_addr, self._row_words
        emb = task.embedding
        elapsed = self._dispatch
        tail_depth = 0.0
        words_out = 0

        if mode == "neighbors":
            u = emb[source]
            src_addr, words_in = row_addr[u], row_words[u]
        else:  # an ancestor's set, back out of the candidate buffer
            anc = task.ancestor(source)
            src_addr, words_in = anc.scratch_addr, anc.raw_words
        first_a, stream_a = memory.stream_read(
            now + elapsed, pe, src_addr, words_in
        )
        if not ops:
            # a pure load or a reused set: stream it through the unit
            scan = -(-words_in // self._throughput)
            elapsed += first_a + max(scan, stream_a)
            comparisons = 0
        else:
            comparisons = comparisons[row]
            depth = self._depth
            for k, (_, p) in enumerate(ops):
                u = emb[p]
                wb = row_words[u]
                first_b, stream_b = memory.stream_read(
                    now + elapsed, pe, row_addr[u], wb
                )
                words_in += wb
                elapsed += (
                    max(first_a, first_b)
                    + max(issue[k][row], stream_a, stream_b)
                    + depth
                )
                # subsequent ops read the previous result from the unit's
                # local buffer: no further memory latency on the A side
                first_a = stream_a = 0.0
            tail_depth = self._tail_depth

        count, kids, first = 0, self._no_children, -1
        if level == self._stop:
            count = counts[row]
        else:
            # store the raw candidate set for descendants, spawn children
            task.raw_words = words_out = raw_words[row]
            if words_out:
                addr = task.scratch_addr = memory.allocate_scratch(
                    pe, words_out
                )
                elapsed += memory.stream_write(
                    now + elapsed, pe, addr, words_out
                )[1]
            first = children[row]
            kids = chunk.vertices[level + 1][first : children[row + 1]]
        elapsed += TASK_COMMIT_CYCLES
        return TaskOutcome(  # positional: the field order above
            elapsed, max(elapsed - tail_depth, 1.0), count, kids, len(ops),
            comparisons, words_in, words_out, first,
        )


def annotate_frontier_report(
    report,
    levels: list[FrontierLevel],
    graph: CSRGraph,
    config,
    siu: SIUCostModel,
) -> None:
    """Fill a ``SimReport``'s timing fields from aggregate frontier stats.

    The model assumes the per-level work spreads perfectly over every SIU
    (issue cycles proportional to streamed words, plus fixed per-task
    dispatch/commit overhead) and overlaps with a bandwidth-limited DRAM
    stream; each level contributes ``max(compute, memory)`` plus one
    pipeline fill.  Deliberately optimistic about load balance — this is a
    throughput estimate for sweeps, not an event-accurate makespan.
    """
    num_sius = max(config.num_pes * config.sius_per_pe, 1)
    throughput = max(siu.throughput, 1)
    per_task = (
        TASK_DISPATCH_CYCLES + TASK_COMMIT_CYCLES
        + config.task_overhead_cycles
    )
    bytes_per_cycle = (
        config.dram.channels * config.dram.bytes_per_cycle_per_channel
    )
    busy = 0.0
    cycles = 0.0
    for st in levels:
        issue = st.words_in / throughput + st.tasks * per_task
        mem_cycles = st.words_in * WORD_BYTES / bytes_per_cycle
        cycles += max(issue / num_sius, mem_cycles) + siu.pipeline_depth
        busy += issue
        report.tasks += st.tasks
        report.set_ops += st.set_ops
        report.comparisons += st.comparisons
        report.words_in += st.words_in
        report.words_out += st.words_out
        report.embeddings += st.count
    report.cycles = cycles
    report.siu_busy_cycles = busy
    report.num_sius = num_sius
    # cold-stream estimate: adjacency touched once, plus spilled frontiers
    report.dram_bytes = WORD_BYTES * (
        int(graph.indices.size) + report.words_out
    )
    report.per_pe_busy = [busy / config.num_pes] * config.num_pes
