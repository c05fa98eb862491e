"""Unit tests for the CSR graph substrate."""

import pickle

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, csr, edges_to_csr


class TestConstruction:
    def test_from_edges_basic(self, toy_graph):
        assert toy_graph.num_vertices == 6
        assert toy_graph.num_edges == 10

    def test_rows_sorted(self, toy_graph):
        for v in range(toy_graph.num_vertices):
            row = toy_graph.neighbors(v)
            assert np.all(np.diff(row) > 0)

    def test_symmetric(self, toy_graph):
        for u in range(toy_graph.num_vertices):
            for v in toy_graph.neighbors(u):
                assert toy_graph.has_edge(int(v), u)

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.neighbors(0).size == 0

    def test_no_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(0, 3)])

    def test_negative_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(-1, 0)])

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                indptr=np.array([0, 2]),
                indices=np.array([1], dtype=np.int32),
            )

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                indptr=np.array([0, 2, 1, 3]),
                indices=np.array([1, 2, 0], dtype=np.int32),
            )


class TestQueries:
    def test_degrees(self, toy_graph):
        assert toy_graph.degree(0) == 3
        assert toy_graph.degree(5) == 2
        assert toy_graph.degrees.sum() == 2 * toy_graph.num_edges

    def test_has_edge(self, toy_graph):
        assert toy_graph.has_edge(0, 1)
        assert not toy_graph.has_edge(0, 5)

    def test_edges_each_once(self, toy_graph):
        edges = list(toy_graph.edges())
        assert len(edges) == toy_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_neighbors_view_is_readonly_slice(self, toy_graph):
        row = toy_graph.neighbors(2)
        assert row.base is toy_graph.indices


class TestTransforms:
    def test_degree_relabel_preserves_structure(self, small_er):
        relabeled = small_er.relabeled_by_degree()
        assert relabeled.num_vertices == small_er.num_vertices
        assert relabeled.num_edges == small_er.num_edges
        assert sorted(relabeled.degrees) == sorted(small_er.degrees)

    def test_degree_relabel_descending(self, small_er):
        relabeled = small_er.relabeled_by_degree()
        degs = relabeled.degrees
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))

    def test_degree_relabel_ascending(self, small_er):
        relabeled = small_er.relabeled_by_degree(descending=False)
        degs = relabeled.degrees
        assert all(degs[i] <= degs[i + 1] for i in range(len(degs) - 1))

    def test_induced_subgraph(self, toy_graph):
        sub = toy_graph.induced_subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # triangle 0-1-2

    def test_induced_subgraph_empty_selection(self, toy_graph):
        sub = toy_graph.induced_subgraph([])
        assert sub.num_vertices == 0

    def test_induced_subgraph_matches_edge_filter(self, small_er, rng):
        labelled = small_er.with_labels(np.arange(small_er.num_vertices) % 3)
        picked = rng.choice(small_er.num_vertices, 17, replace=False)
        sub = labelled.induced_subgraph(picked.tolist() + [int(picked[0])])
        keep = np.sort(picked)
        local = {int(v): i for i, v in enumerate(keep)}
        expect = CSRGraph.from_edges(keep.size, [
            (local[u], local[v]) for u, v in small_er.edges()
            if u in local and v in local
        ])
        assert sub.fingerprint() == expect.with_labels(keep % 3).fingerprint()
        assert sub.name == "er30-induced"
        assert labelled.induced_subgraph(keep, name="x").name == "x"

    def test_subgraph_algorithms_keep_labels(self, small_er):
        from repro.graph import neighborhood

        labelled = small_er.with_labels(np.arange(small_er.num_vertices))
        for keep in (
            np.flatnonzero(labelled.degrees >= 8),
            neighborhood(labelled, np.array([0]), 1),
        ):
            sub = labelled.induced_subgraph(keep)
            # label = source ID, so each local edge names a source edge
            assert sub.num_edges > 0
            assert all(
                small_er.has_edge(int(sub.labels[u]), int(sub.labels[v]))
                for u, v in sub.edges()
            )

    def test_neighborhood_is_the_bfs_ball(self, skewed_graph):
        from repro.graph import neighborhood

        seeds = np.array([150, 7])
        dist = {int(s): 0 for s in seeds}
        frontier = list(dist)
        for hop in (1, 2):
            frontier = [
                int(w) for v in frontier for w in skewed_graph.neighbors(v)
                if dist.setdefault(int(w), hop) == hop
            ]
            got = neighborhood(skewed_graph, seeds, hop)
            assert got.tolist() == sorted(dist)
        assert neighborhood(skewed_graph, seeds, 0).tolist() == [7, 150]

    def test_degree_relabel_is_isomorphic_and_carries_labels(self, small_er):
        n = small_er.num_vertices
        labelled = small_er.with_labels(np.arange(n))  # label = old ID
        labelled.base_address = 0x4000
        out = labelled.relabeled_by_degree()
        old = out.labels
        assert sorted(old.tolist()) == list(range(n))
        assert {tuple(sorted((int(old[u]), int(old[v]))))
                for u, v in out.edges()} == set(small_er.edges())
        rebuilt = CSRGraph.from_edges(n, list(out.edges()))
        assert out.indptr.tobytes() == rebuilt.indptr.tobytes()
        assert out.indices.tobytes() == rebuilt.indices.tobytes()
        assert out.indices.dtype == np.int32
        assert (out.name, out.base_address) == ("er30-degsorted", 0x4000)


def _same_arrays(got: CSRGraph, want: CSRGraph) -> bool:
    return (
        got.indptr.tobytes() == want.indptr.tobytes()
        and got.indices.tobytes() == want.indices.tobytes()
        and got.indices.dtype == want.indices.dtype == np.int32
    )


class TestEdgeSplice:
    """``with_edge`` / ``without_edge`` against a ``from_edges`` rebuild."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_toggles_match_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        # sparse, so first/last vertices and empty rows take part
        edges = {
            (int(min(u, v)), int(max(u, v)))
            for u, v in rng.integers(0, n, (12, 2)) if u != v
        }
        g = CSRGraph.from_edges(n, sorted(edges), name="g")
        g = g.with_labels(rng.integers(0, 3, n))
        g.base_address = 0x3000
        corners = [(0, n - 1), (n - 1, 0), (0, 1), (n - 2, n - 1)]
        pairs = corners + rng.integers(0, n, (40, 2)).tolist()
        for u, v in pairs:
            if u == v:
                continue
            had = g.has_edge(u, v)
            nxt = g.without_edge(u, v) if had else g.with_edge(u, v)
            edges ^= {(min(u, v), max(u, v))}
            assert _same_arrays(nxt, CSRGraph.from_edges(n, sorted(edges)))
            assert nxt.has_edge(u, v) != had and nxt.has_edge(v, u) != had
            assert nxt.labels is g.labels  # carried, not copied
            assert (nxt.name, nxt.base_address) == ("g", 0x3000)
            assert g.has_edge(u, v) == had  # the source graph is not written
            g = nxt

    def test_into_and_out_of_an_empty_graph(self):
        g = CSRGraph.empty(4).with_edge(3, 0)
        assert _same_arrays(g, CSRGraph.from_edges(4, [(0, 3)]))
        assert _same_arrays(g.without_edge(0, 3), CSRGraph.empty(4))

    def test_duplicate_insert_and_missing_remove_return_self(self, toy_graph):
        assert toy_graph.with_edge(1, 0) is toy_graph
        assert toy_graph.without_edge(0, 5) is toy_graph

    @pytest.mark.parametrize("u,v", [(1, 1), (0, 6), (6, 0), (-1, 2), (2, -1)])
    def test_self_loop_and_out_of_range_rejected(self, toy_graph, u, v):
        with pytest.raises(GraphFormatError):
            toy_graph.with_edge(u, v)
        with pytest.raises(GraphFormatError):
            toy_graph.without_edge(u, v)


class TestEdgesToCSR:
    def test_roundtrip_random(self, rng):
        n = 40
        pairs = set()
        for _ in range(100):
            u, v = rng.integers(0, n, 2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        indptr, indices = edges_to_csr(n, pairs)
        g = CSRGraph(indptr=indptr, indices=indices)
        assert g.num_edges == len(pairs)
        assert set(g.edges()) == {(int(u), int(v)) for u, v in pairs}

    def test_empty_edges(self):
        indptr, indices = edges_to_csr(4, [])
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert indices.size == 0

    def test_array_taken_as_is_equals_pair_list(self, rng):
        arr = rng.integers(0, 30, (200, 2))  # self loops, duplicates
        from_array = edges_to_csr(30, arr)
        from_pairs = edges_to_csr(30, [tuple(map(int, e)) for e in arr])
        for a, b in zip(from_array, from_pairs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for bad in (np.zeros((3, 3), dtype=int), np.arange(4)):
            with pytest.raises(GraphFormatError):
                edges_to_csr(30, bad)
        assert edges_to_csr(4, np.empty((0, 2), dtype=int))[1].size == 0


class TestFingerprint:
    def test_stable_across_identical_builds(self, toy_graph):
        edges = list(toy_graph.edges())
        twin = CSRGraph.from_edges(toy_graph.num_vertices, edges,
                                   name="different-name")
        twin.base_address = toy_graph.base_address + 0x1000
        assert twin.fingerprint() == toy_graph.fingerprint()

    def test_changes_on_edge_edit(self, toy_graph):
        edges = list(toy_graph.edges())
        added = CSRGraph.from_edges(
            toy_graph.num_vertices, edges + [(1, 5)]
        )
        removed = CSRGraph.from_edges(toy_graph.num_vertices, edges[1:])
        fps = {toy_graph.fingerprint(), added.fingerprint(),
               removed.fingerprint()}
        assert len(fps) == 3

    def test_labels_change_fingerprint(self, toy_graph):
        labelled = toy_graph.with_labels([0, 1, 0, 1, 0, 1])
        relabelled = toy_graph.with_labels([1, 0, 1, 0, 1, 0])
        fps = {toy_graph.fingerprint(), labelled.fingerprint(),
               relabelled.fingerprint()}
        assert len(fps) == 3

    @pytest.fixture
    def fresh_prints(self, monkeypatch):
        """The graphs whose print was computed afresh (a pass over E)."""
        hashed = []
        fresh_print = csr._fresh_print

        def counted(graph):
            hashed.append(graph)
            return fresh_print(graph)

        monkeypatch.setattr(csr, "_fresh_print", counted)
        return hashed

    def test_hashed_once_per_instance(self, toy_graph, fresh_prints):
        g = CSRGraph(toy_graph.indptr, toy_graph.indices)
        assert g.fingerprint() == g.fingerprint() == g.fingerprint()
        assert len(fresh_prints) == 1
        # an edited copy's print is spliced from its parent's, not hashed
        edited = g.with_edge(1, 5)
        assert edited.fingerprint() != g.fingerprint()
        assert len(fresh_prints) == 1
        fresh = CSRGraph(edited.indptr, edited.indices)
        assert edited.fingerprint() == fresh.fingerprint()
        assert fresh_prints == [g, fresh]

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_the_lane_sums_equal_a_loop_over_the_keys(self, chunk,
                                                      monkeypatch):
        # windows of slots cut rows anywhere, around empty rows too
        monkeypatch.setattr(csr, "_PRINT_CHUNK", chunk)
        g = CSRGraph.from_edges(
            12, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 6), (6, 7), (7, 9),
                 (1, 9), (2, 10), (3, 10)],
        )
        n, lanes = g.num_vertices, [0, 0]
        for u in range(n):
            for v in g.neighbors(u):
                for lane, (first, second) in enumerate(csr._LANES):
                    z = (u * n + int(v)) * first % 2**64
                    z = (z ^ z >> 32) * second % 2**64
                    lanes[lane] += z ^ z >> 29
        assert csr._fresh_print(g)[0] == (lanes[0] % 2**64, lanes[1] % 2**64)

    def test_an_undone_edit_restores_the_print(self, small_er):
        fp = small_er.fingerprint()
        u, v = next(small_er.edges())
        absent = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not small_er.has_edge(a, b)
        )
        removed = small_er.without_edge(u, v)
        added = small_er.with_edge(*absent)
        assert len({fp, removed.fingerprint(), added.fingerprint()}) == 3
        assert removed.with_edge(u, v).fingerprint() == fp
        assert added.without_edge(*absent).fingerprint() == fp

    def test_pickles_and_whole_graph_shards_carry_the_print(
        self, small_er, fresh_prints
    ):
        from repro.cluster.partition import make_shards

        specs = make_shards(small_er, num_shards=2, halo_hops=2)
        assert len(fresh_prints) == 1  # the input's, shared by the shards
        assert all(
            spec.graph.num_vertices == small_er.num_vertices for spec in specs
        )
        fp = small_er.fingerprint()
        copies = [
            pickle.loads(pickle.dumps(small_er)),
            *(spec.graph for spec in specs),
            *(pickle.loads(pickle.dumps(spec)).graph for spec in specs),
        ]
        assert [g.fingerprint() for g in copies] == [fp] * len(copies)
        # a carried print is spliced through the copy's edits too
        u, v = next(small_er.edges())
        assert {g.without_edge(u, v).fingerprint() for g in copies} == {
            small_er.without_edge(u, v).fingerprint()
        }
        assert len(fresh_prints) == 1

    def test_every_single_edit_and_relabelling_is_distinct(self):
        n, labels = 7, np.arange(7) % 3
        g = CSRGraph.from_edges(
            n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]
        ).with_labels(labels)
        graphs = [g, CSRGraph(g.indptr, g.indices)]  # and unlabelled
        for u in range(n):
            for v in range(u + 1, n):
                edited = (
                    g.without_edge(u, v) if g.has_edge(u, v)
                    else g.with_edge(u, v)
                )
                # the spliced print is the fresh build's
                assert edited.fingerprint() == CSRGraph(
                    edited.indptr, edited.indices, labels=labels
                ).fingerprint()
                graphs.append(edited)
        for v in range(n):
            for label in {0, 1, 2} - {int(labels[v])}:
                relabelled = labels.copy()
                relabelled[v] = label
                graphs.append(g.with_labels(relabelled))
        prints = [g.fingerprint() for g in graphs]
        assert len(set(prints)) == len(prints) == 2 + 21 + 14
        # each lane alone tells every edit apart, and the finisher reads
        # both lanes, n and the labels
        edits = [g._derived["fingerprint"][0] for g in graphs[2:23]]
        for lane in (0, 1):
            assert len({lanes[lane] for lanes in edits}) == 21
        finished = {
            csr._finish(*args)[-1]
            for args in [(7, 1, 2, b""), (7, 2, 1, b""), (7, 1, 3, b""),
                         (8, 1, 2, b""), (7, 1, 2, b"labels")]
        }
        assert len(finished) == 5

    def test_vertex_count_matters(self):
        # same (empty) arrays, different number of isolated vertices
        a = CSRGraph.empty(3)
        b = CSRGraph.empty(4)
        assert a.fingerprint() != b.fingerprint()

    def test_survives_io_roundtrip(self, toy_graph, tmp_path):
        from repro.graph.io import load_edge_list, save_edge_list

        path = tmp_path / "toy.txt"
        save_edge_list(toy_graph, path)
        loaded = load_edge_list(path)
        assert loaded.fingerprint() == toy_graph.fingerprint()

    def test_gzip_roundtrip(self, small_er, tmp_path):
        from repro.graph.io import load_edge_list, save_edge_list

        # every vertex of the fixture has degree > 0, so ids survive the
        # load-time compaction and the CSR arrays reproduce exactly
        assert int(small_er.degrees.min()) > 0
        path = tmp_path / "er.txt.gz"
        save_edge_list(small_er, path)
        assert load_edge_list(path).fingerprint() == small_er.fingerprint()
