"""Unit tests for the hardware task executor."""

import numpy as np
import pytest

from repro.core import xset_default
from repro.engine.functional import row_word_counts
from repro.memory import MemoryConfig, MemoryHierarchy
from repro.patterns import PATTERNS, build_plan
from repro.sched.task import SimTask
from repro.sim.hwexec import HardwareTaskExecutor
from repro.siu import make_siu


@pytest.fixture
def executor(toy_graph):
    plan = build_plan(PATTERNS["3CF"])
    memory = MemoryHierarchy(MemoryConfig(num_pes=1))
    siu = make_siu("order-aware", 8, bitmap_width=0)
    return HardwareTaskExecutor(toy_graph, plan, siu, memory)


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


class TestExecute:
    def test_load_level_task(self, executor, toy_graph):
        task = SimTask(level=1, vertex=4, parent=None)
        outcome = executor.execute(task, pe=0, now=0.0)
        # level 1 of the triangle plan loads N(u0) and spawns filtered kids
        assert outcome.set_ops == 0
        assert outcome.count_delta == 0
        # filter is u1 < u0: neighbours of 4 below 4
        assert sorted(outcome.children.tolist()) == [0, 2, 3]
        assert outcome.elapsed > 0
        assert outcome.occupancy <= outcome.elapsed

    def test_leaf_count_task(self, executor, toy_graph):
        root = SimTask(level=1, vertex=4, parent=None)
        executor.execute(root, pe=0, now=0.0)
        leaf = SimTask(level=2, vertex=3, parent=root)
        outcome = executor.execute(leaf, pe=0, now=10.0)
        # triangle leaf: |N(4) ∩ N(3)| with < u1 filter
        assert outcome.set_ops == 1
        assert outcome.children.size == 0
        assert outcome.count_delta == 1  # vertex 2 < 3 completes (4,3,2)

    def test_intermediate_set_stored(self, toy_graph):
        plan = build_plan(PATTERNS["4CF"])
        memory = MemoryHierarchy(MemoryConfig(num_pes=1))
        ex = HardwareTaskExecutor(
            toy_graph, plan, make_siu("order-aware", 8), memory
        )
        root = SimTask(level=1, vertex=4, parent=None)
        ex.execute(root, pe=0, now=0.0)
        # N(4) = {0, 2, 3, 5}, one word per vertex without BitmapCSR
        assert root.raw_words == toy_graph.degree(4)
        assert root.scratch_addr != 0
        mid = SimTask(level=2, vertex=3, parent=root)
        out = ex.execute(mid, pe=0, now=5.0)
        # N(4) ∩ N(3) = {2, 5}, stored for level-3 reuse
        assert mid.raw_words == 2
        assert mid.scratch_addr > root.scratch_addr
        assert out.words_out == mid.raw_words

    def test_occupancy_excludes_pipeline_tail(self, executor):
        root = SimTask(level=1, vertex=4, parent=None)
        executor.execute(root, pe=0, now=0.0)
        leaf = SimTask(level=2, vertex=3, parent=root)
        outcome = executor.execute(leaf, pe=0, now=10.0)
        depth = executor.siu.pipeline_depth
        assert outcome.elapsed - outcome.occupancy == pytest.approx(depth)

    def test_task_overhead_charged(self, toy_graph):
        plan = build_plan(PATTERNS["3CF"])
        mem = MemoryHierarchy(MemoryConfig(num_pes=1))
        fast = HardwareTaskExecutor(
            toy_graph, plan, make_siu("order-aware", 8), mem
        )
        mem2 = MemoryHierarchy(MemoryConfig(num_pes=1))
        slow = HardwareTaskExecutor(
            toy_graph, plan, make_siu("order-aware", 8), mem2,
            task_overhead_cycles=10,
        )
        t1 = SimTask(level=1, vertex=4, parent=None)
        t2 = SimTask(level=1, vertex=4, parent=None)
        a = fast.execute(t1, 0, 0.0)
        b = slow.execute(t2, 0, 0.0)
        assert b.elapsed == pytest.approx(a.elapsed + 10)

    def test_set_words_bitmap(self, toy_graph):
        plan = build_plan(PATTERNS["3CF"])
        mem = MemoryHierarchy(MemoryConfig(num_pes=1))
        ex = HardwareTaskExecutor(
            toy_graph, plan, make_siu("order-aware", 8, bitmap_width=8), mem
        )
        assert ex.set_words(np.array([0, 1, 2, 7])) == 1
        assert ex.set_words(np.array([0, 8, 16])) == 3
        assert ex.set_words(np.array([], dtype=np.int64)) == 0

    def test_set_words_width_zero_is_cardinality(self, executor):
        # plain sorted-array streams: one word per element
        assert executor.set_words(np.array([3, 9, 12, 40])) == 4
        assert executor.set_words(np.array([], dtype=np.int64)) == 0

    def test_set_words_matches_row_word_counts(self, skewed_graph):
        """set_words on a neighbour row agrees with the bulk row counts."""
        plan = build_plan(PATTERNS["3CF"])
        mem = MemoryHierarchy(MemoryConfig(num_pes=1))
        for width in (0, 4, 16):
            ex = HardwareTaskExecutor(
                skewed_graph, plan,
                make_siu("order-aware", 8, bitmap_width=width), mem,
            )
            counts = row_word_counts(skewed_graph, width)
            for v in range(0, skewed_graph.num_vertices, 23):
                row = skewed_graph.neighbors(v)
                assert ex.set_words(row) == counts[v], (v, width)
