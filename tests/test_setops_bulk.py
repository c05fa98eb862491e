"""Rank-bounded gathers and the per-graph index memo."""

from __future__ import annotations

import dataclasses
import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import xset_default
from repro.engine import functional, get_engine
from repro.graph import CSRGraph, erdos_renyi, load_dataset
from repro.patterns import PATTERNS, build_plan
from repro.patterns.codegen import _reuses_parent
from repro.patterns.plan import LevelSpec
from repro.setops import bulk
from repro.setops.bulk import (
    bit_leaf_sizes,
    bulk_adjacency_bits,
    edge_keys,
    gather_rows,
    gather_spans,
    prefix_masks,
    row_spans,
)


def _filtered_full_gather(graph, vertices, upper, lower):
    """The reference: gather whole rows, then compare every element."""
    cand, owner = gather_rows(graph, vertices)
    keep = np.ones(cand.size, dtype=bool)
    if upper is not None:
        keep &= cand < upper[owner]
    if lower is not None:
        keep &= cand > lower[owner]
    return cand[keep], owner[keep]


def _bounded_gather(graph, vertices, upper, lower):
    lo, hi = row_spans(graph, edge_keys(graph), vertices, upper, lower)
    return gather_rows(graph, vertices, lo, hi)


@st.composite
def graph_and_bounds(draw):
    n = draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # sparse edge lists leave degree-0 rows; vertices may repeat
    graph = CSRGraph.from_edges(n, draw(st.lists(pairs, max_size=3 * n)))
    rows = draw(st.integers(0, 12))
    vertices = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)),
        dtype=np.int32,
    )
    # bounds reach past both ends of the ID range, and cross each other
    bound = st.lists(
        st.integers(-3, n + 3), min_size=rows, max_size=rows
    ).map(lambda xs: np.array(xs, dtype=np.int32))
    upper = draw(st.one_of(st.none(), bound))
    lower = draw(st.one_of(st.none(), bound))
    return graph, vertices, upper, lower


class TestBoundedGather:
    @given(graph_and_bounds())
    @settings(max_examples=300, deadline=None)
    def test_equals_filtered_full_gather(self, case):
        graph, vertices, upper, lower = case
        got = _bounded_gather(graph, vertices, upper, lower)
        want = _filtered_full_gather(graph, vertices, upper, lower)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_default_spans_are_the_whole_rows(self, small_er):
        vertices = np.array([3, 3, 0, 29], dtype=np.int32)
        lo, hi = row_spans(small_er, edge_keys(small_er), vertices)
        assert np.array_equal(lo, small_er.indptr[vertices])
        assert np.array_equal(hi, small_er.indptr[vertices + 1])
        for got, want in zip(
            gather_rows(small_er, vertices, lo, hi),
            gather_rows(small_er, vertices),
        ):
            assert np.array_equal(got, want)

    def test_crossed_and_empty_bounds_gather_nothing(self, small_er):
        vertices = np.arange(small_er.num_vertices, dtype=np.int32)
        same = np.full(vertices.size, 7, dtype=np.int32)
        for upper, lower in ((same, same), (same - 3, same), (same * 0, None)):
            cand, owner = _bounded_gather(small_er, vertices, upper, lower)
            assert cand.size == 0 and owner.size == 0

    def test_keys_do_not_wrap_past_int32(self):
        # from n = 46341 on, int32 u * n + v overflows; the spans are
        # searched in int64 whatever dtype the embeddings carry
        n = 50_000
        hub = n - 1
        nbrs = [5, 46_340, 46_341, 49_000, n - 2]
        graph = CSRGraph.from_edges(n, [(hub, v) for v in nbrs])
        vertices = np.array([hub, 46_341, 0, hub], dtype=np.int32)
        upper = np.array([49_000, n, 3, 6], dtype=np.int32)
        lower = np.array([5, -1, -1, 4], dtype=np.int32)
        cand, owner = _bounded_gather(graph, vertices, upper, lower)
        assert cand.tolist() == [46_340, 46_341, hub, 5]
        assert owner.tolist() == [0, 0, 1, 3]
        want = _filtered_full_gather(graph, vertices, upper, lower)
        assert np.array_equal(cand, want[0])

    def test_gather_spans_over_a_plain_array(self):
        values = np.arange(10, 20)
        got, owner = gather_spans(
            values, np.array([0, 4, 4, 7]), np.array([2, 4, 6, 10])
        )
        assert got.tolist() == [10, 11, 14, 15, 17, 18, 19]
        assert owner.tolist() == [0, 0, 2, 2, 3, 3, 3]


class TestGraphIndexMemo:
    @pytest.fixture
    def graph(self):
        return erdos_renyi(80, 9.0, seed=4, name="memo")

    @staticmethod
    def _count(graph, engine, pattern, **cfg):
        config = xset_default(engine=engine, **cfg)
        return get_engine(engine).run(
            graph, build_plan(PATTERNS[pattern]), config
        ).embeddings

    def test_index_is_never_pickled_or_compared(self, graph):
        fingerprint = graph.fingerprint()
        before = len(pickle.dumps(graph))
        self._count(graph, "codegen", "4CF")
        self._count(graph, "codegen", "3CF", bitmap_width=64)
        # the indexes are never pickled; the fingerprint is
        assert len(pickle.dumps(graph)) == before
        assert graph.fingerprint() == fingerprint
        memo = {f.name: f for f in dataclasses.fields(graph)}["_derived"]
        assert not memo.compare and not memo.repr and not memo.init
        clone = pickle.loads(pickle.dumps(graph))
        assert set(clone._derived) == {"fingerprint"}
        assert set(graph._derived) > {"fingerprint"}
        fresh = CSRGraph(graph.indptr, graph.indices, labels=graph.labels)
        assert clone.fingerprint() == fresh.fingerprint() == fingerprint
        assert self._count(clone, "codegen", "4CF") == self._count(
            graph, "codegen", "4CF"
        )

    def test_second_query_builds_nothing(self, graph, monkeypatch):
        want = self._count(graph, "codegen", "3CF")

        def rebuilt(*args, **kwargs):
            raise AssertionError("graph index rebuilt on a warm graph")

        for module, name in ((bulk, "packed_adjacency"), (bulk, "edge_keys"),
                             (functional, "row_word_counts")):
            monkeypatch.setattr(module, name, rebuilt)
        # same instance: other plans, the other engine, nothing is built
        assert self._count(graph, "codegen", "3CF") == want
        assert self._count(graph, "event", "3CF") == want
        self._count(graph, "codegen", "4CF")
        # a new bitmap width is a new row-word geometry, and only that
        with pytest.raises(AssertionError, match="rebuilt"):
            self._count(graph, "codegen", "3CF", bitmap_width=64)
        # another instance of the same graph starts cold
        with pytest.raises(AssertionError, match="rebuilt"):
            self._count(erdos_renyi(80, 9.0, seed=4), "codegen", "3CF")


class TestDerivedSplice:
    """An edge edit carries every index registered with a splice into the
    new snapshot, equal to a fresh build, and drops every other one."""

    SPLICED = {
        "adj_bits", "edge_keys", "fingerprint", ("row_words", 0),
        ("row_words", 8),
    }

    @pytest.mark.parametrize("n", [60, bulk.PACKED_ADJ_MAX_VERTICES + 50])
    @given(toggles=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11))
        .filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=15, deadline=None)
    def test_a_chain_of_edits_equals_a_fresh_build(self, n, toggles):
        g = erdos_renyi(n, 40.0 if n < 100 else 1.5, seed=2).with_labels(
            np.arange(n) % 3
        )
        g.fingerprint()
        bulk.graph_adj_bits(g)
        bulk.graph_edge_keys(g)
        for width in (0, 8):
            functional.graph_row_words(g, width)
        g.derived("unspliced", object)
        # the chain's first edit removes an edge of the graph
        for u, v in [next(g.edges()), *toggles]:
            g = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
            assert set(g._derived) == self.SPLICED
            fresh = CSRGraph(g.indptr, g.indices)
            assert g.fingerprint() == CSRGraph(
                g.indptr, g.indices, labels=g.labels
            ).fingerprint()
            bits = bulk.graph_adj_bits(g)
            if n > bulk.PACKED_ADJ_MAX_VERTICES:
                assert bits is None
            else:
                assert np.array_equal(bits, bulk.packed_adjacency(fresh))
            assert np.array_equal(bulk.graph_edge_keys(g), edge_keys(fresh))
            for width in (0, 8):
                assert np.array_equal(
                    functional.graph_row_words(g, width),
                    functional.row_word_counts(fresh, width),
                )


@st.composite
def graph_rows_and_level(draw):
    # small n makes random rows hit each other's neighbourhoods; word
    # boundaries matter too: n = 64k - 1, 64k, 64k + 1; and rows of 2-3
    # words give the bounds of each chunk a window of words to leave
    n = draw(st.one_of(
        st.integers(1, 10), st.integers(11, 70),
        st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(65, 192),
    ))
    vertex = st.integers(0, n - 1)
    # sparse edge lists leave degree-0 rows
    graph = CSRGraph.from_edges(
        n, draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    )
    if draw(st.booleans()):
        graph.labels = np.array(
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    width = 4  # embedding columns any role may name, repeats allowed
    rows = draw(st.integers(0, 40))
    emb = np.array(
        draw(st.lists(
            st.lists(vertex, min_size=width, max_size=width),
            min_size=rows, max_size=rows,
        )),
        dtype=np.int32,
    ).reshape(rows, width)

    def cols(most):
        return tuple(draw(st.lists(
            st.integers(0, width - 1), max_size=most
        )))

    # the level below a level-3 frontier: a kernel entered at level 3
    level = LevelSpec(
        position=width,
        pattern_vertex=width,
        deps=(draw(st.integers(0, width - 1)), *cols(2)),
        anti_deps=cols(2),
        upper_bounds=cols(3),
        lower_bounds=cols(3),
        exclude=cols(2),
        label=draw(st.one_of(st.none(), st.integers(0, 2))),
    )
    plan = SimpleNamespace(
        levels=(None,) * width + (level,), stop_level=width, depth=width + 1,
        collection=draw(st.sampled_from(["count_last", "choose2"])),
        pattern=SimpleNamespace(name="bulk-case"),
    )
    # a few words per chunk: many chunks, each with its own word window
    chunk_words = draw(st.sampled_from([1, 2, 3, 4, bulk.BIT_CHUNK_WORDS]))
    return graph, emb, plan, draw(st.sampled_from([0, 8])), chunk_words


class TestBitLeaf:
    @given(graph_rows_and_level())
    @settings(max_examples=400, deadline=None)
    def test_bit_rows_equal_the_array_path(self, case):
        # both representations of the compiled leaf, forced in turn — the
        # density rule is bypassed, so this holds wherever the rule may
        # later draw the line
        graph, emb, plan, bitmap_width, chunk_words = case
        expander = functional.FrontierExpander(graph, plan, bitmap_width)
        got = {}
        for bits in (False, True):
            with mock.patch.object(
                bulk, "bit_rows_cheaper", return_value=bits
            ), mock.patch.object(bulk, "BIT_CHUNK_WORDS", chunk_words):
                steps = expander.run_chunk(emb)  # none when emb is empty
            assert sum(s.bit_rows for s in steps) == (
                emb.shape[0] if bits else 0
            )
            got[bits] = tuple(
                sum(getattr(s, field) for s in steps) for field in (
                    "count", "set_ops", "comparisons", "words_in",
                    "words_out",
                )
            )
        assert got[True] == got[False]

    @pytest.mark.parametrize("seed", range(4))
    def test_sizes_equal_an_integer_row_sum(self, seed, monkeypatch):
        # the leaf sums each row's popcounts through a float32 matvec,
        # exact while a size stays below 2**24; dense rows over many
        # chunks of one or several rows, against an integer reduction
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1200))
        graph = erdos_renyi(n, n / 3, seed=seed)
        emb = rng.integers(0, n, size=(int(rng.integers(1, 400)), 3))
        monkeypatch.setattr(bulk, "bit_rows_cheaper", lambda *args: True)
        monkeypatch.setattr(
            bulk, "BIT_CHUNK_WORDS", int(rng.integers(1, 200))
        )
        words = bulk.packed_adjacency(graph).view("<u8")
        acc = words[emb[:, 0]]
        sizes, _ = bit_leaf_sizes(graph, emb, 0, (), (), (), (), None, 0)
        assert np.array_equal(
            sizes, np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
        )
        acc = acc & prefix_masks(n)[emb[:, 1]]
        sizes, priors = bit_leaf_sizes(
            graph, emb, 0, (1,), (), (), ((2, False),), None, 0
        )
        assert priors == [int(np.bitwise_count(acc).sum(dtype=np.int64))]
        acc &= words[emb[:, 2]]
        assert np.array_equal(
            sizes, np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
        )

    def test_excluded_vertices_outside_the_window_are_skipped(
        self, monkeypatch
    ):
        # complete graph on 3 words; the lower bounds leave words 1-2, so
        # vertex 5 has no bit in the window (and 140 one to clear)
        n = 192
        graph = CSRGraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)]
        )
        emb = np.array([[191, 100, 5], [190, 130, 140]])
        monkeypatch.setattr(bulk, "bit_rows_cheaper", lambda *args: True)
        sizes, _ = bit_leaf_sizes(graph, emb, 0, (), (1,), (2,), (), None, 0)
        assert sizes.tolist() == [90, 59]  # 101..190; 131..191 - {190, 140}

    def test_one_adjacency_buffer_and_one_mask_table_per_size(self):
        a = erdos_renyi(130, 7.0, seed=1)
        b = erdos_renyi(130, 9.0, seed=2)  # another snapshot, same size
        plan = build_plan(PATTERNS["DIA"])
        for graph in (a, b):
            get_engine("codegen").run(graph, plan, xset_default())
        bits = a._derived["adj_bits"]
        assert bits.shape == (130, 24) and bits.dtype == np.uint8  # 3 words
        words = bits.view("<u8")  # what the word-parallel leaf reads
        assert np.shares_memory(words, bits) and words.shape == (130, 3)
        u, v = np.nonzero(np.ones((130, 130), dtype=bool))
        assert np.array_equal(
            bulk_adjacency_bits(bits, u, v),
            (words[u, v >> 6] >> (v & 63).astype(np.uint64)) & 1 != 0,
        )
        # no second n²/8 table: the memo holds what it held before
        assert all(
            set(g._derived) == {"adj_bits", "edge_keys", ("row_words", 8)}
            for g in (a, b)
        )
        # the prefix masks depend on n alone: both graphs share one table
        assert prefix_masks(130) is prefix_masks(130)
        assert prefix_masks.cache_info().currsize <= 2

    def test_graphs_above_the_bitset_cap_stay_on_arrays(self):
        graph = erdos_renyi(40, 4.0, seed=3)
        graph._derived["adj_bits"] = None  # as packed_adjacency caps it
        emb = np.zeros((4, 2), dtype=np.int32)
        assert bit_leaf_sizes(graph, emb, 0, (), (), (), (), None, 1) is None


def reuse_leaf_rule(graph):
    """What the density rule says of 4CF's level-3 leaf in the form the
    codegen kernel runs it, parent-set reuse, fed the real frontier."""
    plan = build_plan(PATTERNS["4CF"])
    level = plan.stop_level
    assert level == 3 and _reuses_parent(plan.levels, level, False)
    expander = functional.FrontierExpander(graph, plan)
    # the kernel's record of the level above the leaf: its survivors
    parent = expander.run_chunk(expander.roots())[level - 2]
    assert parent.level == level - 1
    emb = parent.embeddings
    lv = plan.levels[level]
    width = bulk.packed_adjacency(graph).shape[1] // 8
    return bulk.bit_rows_cheaper(
        graph, width, emb, lv.deps[0], lv.upper_bounds, lv.lower_bounds,
        len(lv.deps) - 1, True,
    )


class TestDensityRule:
    def test_the_reuse_leaf_on_wv_runs_on_bit_rows(self, monkeypatch):
        # 100 k rows of 20 words, ~9 span candidates each: the reuse path's
        # per-row regrouping is what tips it; priced per candidate only,
        # the rule chose the slower arrays
        graph = load_dataset("WV", scale=0.18)
        assert reuse_leaf_rule(graph)
        monkeypatch.setattr(bulk, "ARRAY_ROW_NS", 0.0)
        assert not reuse_leaf_rule(graph)

    def test_the_same_leaf_on_a_wide_sparse_graph_stays_on_arrays(self):
        # 188 words per row against a handful of candidates
        assert not reuse_leaf_rule(erdos_renyi(12000, 6.0, seed=1))
