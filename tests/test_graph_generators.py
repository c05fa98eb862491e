"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    configuration_model,
    erdos_renyi,
    powerlaw_degree_sequence,
    powerlaw_graph,
)
from repro.graph.stats import degree_skewness


class TestErdosRenyi:
    def test_size_and_density(self):
        g = erdos_renyi(500, 8.0, seed=1)
        assert g.num_vertices == 500
        # expected m = n*avg/2 = 2000; allow slack for dedup losses
        assert 1500 <= g.num_edges <= 2100

    def test_deterministic(self):
        a = erdos_renyi(100, 5.0, seed=9)
        b = erdos_renyi(100, 5.0, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = erdos_renyi(100, 5.0, seed=1)
        b = erdos_renyi(100, 5.0, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_tiny(self):
        g = erdos_renyi(1, 0.0, seed=0)
        assert g.num_edges == 0


class TestPowerlawSequence:
    def test_mean_close_to_target(self):
        deg = powerlaw_degree_sequence(5000, 8.0, 500, seed=2)
        assert abs(deg.mean() - 8.0) / 8.0 < 0.25

    def test_max_degree_pinned(self):
        deg = powerlaw_degree_sequence(1000, 5.0, 321, seed=2)
        assert deg.max() == 321

    def test_even_sum(self):
        for seed in range(5):
            deg = powerlaw_degree_sequence(777, 4.0, 50, seed=seed)
            assert deg.sum() % 2 == 0

    def test_invalid_args(self):
        with pytest.raises(GraphFormatError):
            powerlaw_degree_sequence(10, 0.5, 5)
        with pytest.raises(GraphFormatError):
            powerlaw_degree_sequence(10, 10.0, 5)


class TestConfigurationModel:
    def test_respects_degrees_approximately(self):
        deg = np.array([3, 3, 2, 2, 2] * 20)
        g = configuration_model(deg, seed=1)
        assert g.num_vertices == 100
        # simple-graph cleanup drops a few edges only
        assert g.num_edges >= int(deg.sum() / 2 * 0.85)

    def test_odd_sum_rejected(self):
        with pytest.raises(GraphFormatError):
            configuration_model(np.array([1, 1, 1]))


class TestPowerlawGraph:
    def test_skew_positive(self):
        g = powerlaw_graph(2000, 6.0, 300, seed=3)
        assert degree_skewness(g.degrees) > 1.0

    def test_triangle_boost_adds_closure(self):
        base = powerlaw_graph(800, 8.0, 100, seed=6, triangle_boost=0.0)
        boosted = powerlaw_graph(800, 8.0, 100, seed=6, triangle_boost=0.5)

        def triangles(g):
            from repro.patterns import PATTERNS, build_plan, count_embeddings

            return count_embeddings(g, build_plan(PATTERNS["3CF"])).embeddings

        assert triangles(boosted) > triangles(base)

    def test_deterministic(self):
        a = powerlaw_graph(300, 5.0, 60, seed=8, triangle_boost=0.2)
        b = powerlaw_graph(300, 5.0, 60, seed=8, triangle_boost=0.2)
        assert np.array_equal(a.indices, b.indices)
