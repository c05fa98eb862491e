"""Tests for graph statistics, edge-list I/O, and the dataset registry."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    DATASETS,
    CSRGraph,
    dataset_table,
    degree_skewness,
    graph_stats,
    load_dataset,
    load_edge_list,
    save_edge_list,
)


class TestStats:
    def test_skewness_symmetric_is_zero(self):
        assert degree_skewness(np.array([1, 2, 3, 4, 5])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_skewness_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        x = rng.exponential(2.0, size=400)
        assert degree_skewness(x) == pytest.approx(
            float(scipy_stats.skew(x, bias=False)), rel=1e-9
        )

    def test_skewness_degenerate(self):
        assert degree_skewness(np.array([2, 2])) == 0.0
        assert degree_skewness(np.array([3, 3, 3, 3])) == 0.0

    def test_graph_stats_avg_degree_convention(self, toy_graph):
        st = graph_stats(toy_graph)
        # Table 3 reports Avg Deg as m/n
        assert st.avg_degree == pytest.approx(
            toy_graph.num_edges / toy_graph.num_vertices
        )
        assert st.max_degree == int(toy_graph.degrees.max())

    def test_stats_row_formatting(self, toy_graph):
        row = graph_stats(toy_graph).row()
        assert "fig1a" in row


class TestIO:
    def test_roundtrip(self, tmp_path, small_er):
        path = tmp_path / "g.txt"
        save_edge_list(small_er, path)
        loaded = load_edge_list(path)
        assert loaded.num_edges == small_er.num_edges
        assert set(loaded.edges()) == set(small_er.edges())

    def test_gzip_roundtrip(self, tmp_path, toy_graph):
        path = tmp_path / "g.txt.gz"
        save_edge_list(toy_graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_edges == toy_graph.num_edges

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\n0 1\n% other comment\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_ids_compacted(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("100 900\n900 5000\n")
        g = load_edge_list(path)
        assert g.num_vertices == 3

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_negative_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1\n1 -2\n")
        with pytest.raises(GraphFormatError, match=r"neg\.txt:2.*negative"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(path)

    def test_comment_only_file_rejected(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# a header\n% nothing else\n\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(path)

    def test_snap_header_edge_mismatch_rejected(self, tmp_path):
        # declares 5 edges, contains 2 — a truncated download
        path = tmp_path / "trunc.txt"
        path.write_text("# Nodes: 3 Edges: 5\n0 1\n1 2\n")
        with pytest.raises(GraphFormatError, match="declares 5 edges"):
            load_edge_list(path)

    def test_save_header_vertex_mismatch_rejected(self, tmp_path):
        path = tmp_path / "under.txt"
        path.write_text("# g: 2 vertices, 3 edges\n0 1\n1 2\n2 0\n")
        with pytest.raises(GraphFormatError, match="declares 2 vertices"):
            load_edge_list(path)

    def test_consistent_snap_header_accepted(self, tmp_path):
        # duplicates, reversals and self-loops collapse to 2 unique edges
        path = tmp_path / "ok.txt"
        path.write_text(
            "# Nodes: 3 Edges: 2\n0 1\n1 0\n1 2\n1 1\n"
        )
        g = load_edge_list(path)
        assert g.num_edges == 2
        assert g.num_vertices == 3


#: ``load_dataset(key, scale).fingerprint()`` at f87bc3f.  The end-to-end
#: benchmark's simulated cycle counts repeat to the digit only while the
#: stand-ins do, so a faster graph build must reproduce every array.
DATASET_FINGERPRINTS = {
    ("PP", 1.0): "8ac5db794703a06504e3e52bc15aef84",
    ("WV", 1.0): "23d32e5b5822ad71dcca1772bf2499b5",
    ("AS", 1.0): "d77c82a8a292038bf1dbbdb3e62edc40",
    ("MI", 1.0): "3c74e47501f876b3b0bf23c40ac51284",
    ("YT", 1.0): "1d20290f6269970eb0c07c2e6e77a949",
    ("PA", 1.0): "c5d9d8c385373ba042fa1db1fb3b9904",
    ("LJ", 1.0): "55f7184a5f3e4d8432b8ee5cf6a0831d",
    ("WV", 0.18): "e36f10268d3e623a3fb364a488400622",
    ("PP", 0.1): "3b04a679ffc077ccdb4c1e5178e058f6",
}


class TestDatasets:
    @pytest.mark.parametrize("key,scale", DATASET_FINGERPRINTS)
    def test_fingerprints_pinned(self, key, scale):
        g = load_dataset(key, scale=scale)
        assert g.fingerprint() == DATASET_FINGERPRINTS[key, scale]
        assert (g.name, g.base_address) == (key, 0x1000_0000)
        assert g.labels is None

    def test_registry_has_seven(self):
        assert len(DATASETS) == 7
        assert list(DATASETS) == ["PP", "WV", "AS", "MI", "YT", "PA", "LJ"]

    def test_load_small_scale(self):
        g = load_dataset("PP", scale=0.1)
        assert isinstance(g, CSRGraph)
        assert g.name == "PP"
        assert g.num_vertices >= 64

    def test_caching(self):
        a = load_dataset("WV", scale=0.1)
        b = load_dataset("WV", scale=0.1)
        assert a is b

    def test_case_insensitive_key(self):
        assert load_dataset("pp", scale=0.1).name == "PP"

    def test_degree_ordered(self):
        g = load_dataset("YT", scale=0.1)
        degs = g.degrees
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))

    def test_avg_degree_tracks_spec(self):
        spec = DATASETS["WV"]
        g = load_dataset("WV", scale=0.5)
        st = graph_stats(g)
        assert st.avg_degree == pytest.approx(spec.avg_degree, rel=0.35)

    def test_skew_ordering_matches_paper(self):
        """YT must be the most skewed stand-in, as in Table 3."""
        table = {s.name: s for s in dataset_table(scale=0.25)}
        assert table["YT"].skew == max(s.skew for s in table.values())

    def test_table_rows_in_order(self):
        names = [s.name for s in dataset_table(scale=0.1)]
        assert names == list(DATASETS)
