"""Unit tests for the hardware task replay: what one simulated task
charges and spawns, and the bulk row word counts."""

import numpy as np
import pytest

from repro.core import xset_default
from repro.engine.functional import row_word_counts
from repro.patterns import PATTERNS, build_plan
from repro.sched.task import SimTask
from repro.sim import AcceleratorSim


class TestRowWordCounts:
    def test_width_zero_is_degrees(self, toy_graph):
        counts = row_word_counts(toy_graph, 0)
        assert np.array_equal(counts, toy_graph.degrees)

    def test_width_matches_encoder(self, skewed_graph):
        from repro.graph.bitmapcsr import encoded_length

        for width in (1, 4, 8):
            counts = row_word_counts(skewed_graph, width)
            for v in range(0, skewed_graph.num_vertices, 17):
                assert counts[v] == encoded_length(
                    skewed_graph.neighbors(v), width
                ), (v, width)

    def test_empty_graph(self):
        from repro.graph import CSRGraph

        g = CSRGraph.empty(4)
        assert row_word_counts(g, 8).tolist() == [0, 0, 0, 0]

    def test_zero_vertex_graph(self):
        from repro.graph import CSRGraph

        g = CSRGraph.empty(0)
        assert row_word_counts(g, 8).size == 0
        assert row_word_counts(g, 0).size == 0

    def test_isolated_vertices_interleaved(self):
        """Degree-0 rows between populated rows must count zero words."""
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(6, [(1, 4), (4, 5)])
        counts = row_word_counts(g, 4)
        assert counts[0] == 0 and counts[2] == 0 and counts[3] == 0
        # row 4 = {1, 5}: blocks 0 and 1 -> two words
        assert counts[4] == 2
        assert counts[1] == 1 and counts[5] == 1

    def test_single_block_rows(self):
        """A row entirely inside one bitmap block costs exactly one word."""
        from repro.graph import CSRGraph

        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = CSRGraph.from_edges(4, edges)
        counts = row_word_counts(g, 8)  # all vertex IDs < 8: one block
        assert counts.tolist() == [1, 1, 1, 1]

    def test_width_zero_empty_rows(self):
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(3, [(0, 1)])
        assert row_word_counts(g, 0).tolist() == [1, 1, 0]


def _run(graph, pattern, start_tasks, **overrides):
    """Replay ``start_tasks`` on one PE with one SIU; returns the simulator,
    its report and the children each task spawned, by parent embedding."""
    config = xset_default(num_pes=1, sius_per_pe=1, bitmap_width=0,
                          **overrides)
    sim = AcceleratorSim(graph, build_plan(PATTERNS[pattern]), config,
                         collect_trace=True)
    spawned = {}
    sched = sim.schedulers[0]
    push = sched.push_children

    def record(parent, children):
        spawned[parent.embedding] = children
        push(parent, children)

    sched.push_children = record
    return sim, sim.run(start_tasks), spawned


def _leaf_start():
    """Leaf (4, 3) of the triangle plan, handed over as a start task."""
    return SimTask(level=2, vertex=3, parent=SimTask(1, 4, None))


class TestExecute:
    def test_load_level_task(self, toy_graph):
        sim, report, spawned = _run(
            toy_graph, "3CF", [SimTask(level=1, vertex=4, parent=None)]
        )
        # level 1 of the triangle plan loads N(u0) and spawns filtered kids
        # (filter is u1 < u0: neighbours of 4 below 4), one op per leaf
        assert [t.vertex for t in spawned[(4,)]] == [0, 2, 3]
        assert sorted(e.level for e in sim.trace.events) == [1, 2, 2, 2]
        assert report.set_ops == 3
        load = sim.trace.events[0]
        assert load.level == 1 and load.end > load.start
        assert report.per_pe_busy[0] <= sum(
            e.end - e.start for e in sim.trace.events
        )

    def test_leaf_count_task(self, toy_graph):
        _, report, spawned = _run(toy_graph, "3CF", [_leaf_start()])
        # triangle leaf: |N(4) ∩ N(3)| with < u1 filter
        assert report.tasks == 1 and report.set_ops == 1
        assert spawned == {}
        assert report.embeddings == 1  # vertex 2 < 3 completes (4,3,2)

    def test_intermediate_set_stored(self, toy_graph):
        root = SimTask(level=1, vertex=4, parent=None)
        _, report, spawned = _run(toy_graph, "4CF", [root])
        # N(4) = {0, 2, 3, 5}, one word per vertex without BitmapCSR
        assert root.raw_words == toy_graph.degree(4)
        assert root.scratch_addr != 0
        mid = next(t for t in spawned[(4,)] if t.vertex == 3)
        # N(4) ∩ N(3) = {2, 5}, stored for level-3 reuse
        assert mid.raw_words == 2
        assert mid.scratch_addr > root.scratch_addr
        assert report.words_out == root.raw_words + sum(
            t.raw_words for t in spawned[(4,)]
        )

    def test_occupancy_excludes_pipeline_tail(self, toy_graph):
        sim, report, _ = _run(toy_graph, "3CF", [_leaf_start()])
        (leaf,) = sim.trace.events
        depth = sim.siu.pipeline_depth
        busy = report.per_pe_busy[0]
        assert leaf.end - leaf.start - busy == pytest.approx(depth)

    def test_task_overhead_charged(self, toy_graph):
        fast, a, _ = _run(toy_graph, "3CF", [SimTask(1, 4, None)])
        slow, b, _ = _run(toy_graph, "3CF", [SimTask(1, 4, None)],
                          task_overhead_cycles=10)
        assert b.tasks == a.tasks == 4
        for e, f in zip(fast.trace.events, slow.trace.events):
            assert f.end - f.start == pytest.approx(e.end - e.start + 10)
