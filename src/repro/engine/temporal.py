"""Temporal layer: cycle costs charged on top of functional outcomes.

Two cost annotators live here, one per execution style:

:class:`TaskCostAnnotator`
    The exact per-task model the ``event`` engine uses, in two halves.
    :meth:`~TaskCostAnnotator.op_costs` does not depend on the clock: the
    functional trace hands it one set operation's merge facts over a block
    of rows, and it asks the SIU model for every row's issue cycles at
    once.  The rest are the tables and SIU constants the simulator's event
    loop (:meth:`repro.sim.accelerator.AcceleratorSim._run`) reads when it
    replays a task in event order: it streams the task's word sequences
    through the (stateful) memory hierarchy — mirroring the Order-Aware SIU
    microarchitecture (Figure 8): both input streams fetch in parallel
    through the private cache while the core pipeline consumes them, so
    one operation costs ``max(first word latencies) + max(compute issue,
    memory occupancy) + pipeline depth`` — and stores its raw set.

:func:`annotate_frontier_report`
    The aggregate analytic model the ``codegen`` engine uses.  It converts
    per-level word/op totals into cycle estimates assuming perfectly
    load-balanced SIUs and bandwidth-limited DRAM streaming — good enough
    to rank design points in a sweep, and orders of magnitude cheaper than
    event-driven simulation.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel
from .functional import FrontierLevel, OpFacts, level_steps, row_word_counts

__all__ = [
    "TASK_DISPATCH_CYCLES",
    "TASK_COMMIT_CYCLES",
    "WORD_BYTES",
    "TaskCostAnnotator",
    "annotate_frontier_report",
]

#: fixed cycles for task setup (frame read + operation dispatch, Fig. 10e)
TASK_DISPATCH_CYCLES = 2
#: fixed cycles to commit a result back to the task tree
TASK_COMMIT_CYCLES = 1
#: bytes per stream word (vertex IDs / BitmapCSR words are 32-bit)
WORD_BYTES = 4


class TaskCostAnnotator:
    """Exact per-task cycle charging: SIU issue cycles per traced block,
    and what the event loop reads once per run to replay a task."""

    def __init__(
        self, graph: CSRGraph, plan: MatchingPlan, siu: SIUCostModel,
        task_overhead_cycles: int = 0,
    ) -> None:
        self.siu = siu
        self._width = width = siu.bitmap_width
        self.stop = plan.stop_level
        #: per level ``(mode, source, positions)``: ``level_steps`` with
        #: each set operation reduced to its operand's position
        self.steps = [None, *(
            (mode, source, tuple(p for _, p in ops))
            for mode, source, ops in map(level_steps, plan.levels[1:])
        )]
        # indexed per stream by the replay: lists are Python's fastest
        self.row_words = graph.derived(
            ("row_words", width), row_word_counts, graph, width
        ).tolist()
        self.row_addr = (graph.indptr[:-1] + graph.base_address).tolist()
        # SIU constants the replay reads once per run
        self.dispatch = float(TASK_DISPATCH_CYCLES + task_overhead_cycles)
        self.throughput = siu.throughput
        self.depth = siu.pipeline_depth
        self.tail_depth = (
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
