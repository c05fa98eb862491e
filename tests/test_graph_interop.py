"""Counts cross-validated against networkx, an independent oracle.

Each test builds the networkx graph from the same edge list as the CSR
graph it counts on, so the two sides share nothing but the edges.
"""

import pytest

nx = pytest.importorskip("networkx")

from repro.graph import CSRGraph, erdos_renyi
from repro.patterns import PATTERNS, build_plan, count_embeddings


class TestFromNetworkx:
    def test_triangle_count_matches_networkx(self):
        g_nx = nx.karate_club_graph()
        g = CSRGraph.from_edges(g_nx.number_of_nodes(), list(g_nx.edges()))
        ours = count_embeddings(g, build_plan(PATTERNS["3CF"])).embeddings
        theirs = sum(nx.triangles(g_nx).values()) // 3
        assert ours == theirs


class TestAgainstNetworkxOracles:
    """Independent oracle checks using networkx's own algorithms."""

    @pytest.mark.parametrize("name", ["4CF", "DIA"])
    def test_subgraph_counts_vs_networkx_isomorphism(self, name):
        g = erdos_renyi(22, 6.0, seed=9)
        pat = PATTERNS[name]
        ours = count_embeddings(g, build_plan(pat)).embeddings
        g_nx = nx.Graph(list(g.edges()))
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            g_nx, nx.Graph(list(pat.edge_list))
        )
        theirs = (
            sum(1 for _ in matcher.subgraph_monomorphisms_iter())
            // pat.automorphism_count()
        )
        assert ours == theirs
