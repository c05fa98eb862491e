"""Labelled GPM: label-constrained patterns across the whole stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import XSetAccelerator, xset_default
from repro.errors import GraphFormatError, PatternError
from repro.graph import CSRGraph, erdos_renyi
from repro.patterns import (
    PATTERNS,
    Pattern,
    build_plan,
    count_embeddings,
    count_unique_embeddings,
    symmetry_restrictions,
)
from repro.sim import HostModel, RoCCInterface


@pytest.fixture
def labeled_graph(rng):
    g = erdos_renyi(36, 7.0, seed=12)
    return g.with_labels(rng.integers(0, 3, g.num_vertices))


class TestLabelPlumbing:
    def test_labels_validated(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphFormatError):
            g.with_labels([1, 2])  # wrong length

    def test_pattern_labels_validated(self):
        with pytest.raises(PatternError):
            PATTERNS["3CF"].with_labels([1, 2])

    def test_degree_relabel_moves_labels(self):
        g = CSRGraph.from_edges(
            4, [(0, 1), (0, 2), (0, 3), (1, 2)]
        ).with_labels([10, 11, 12, 13])
        h = g.relabeled_by_degree()
        # vertex 0 (degree 3) becomes vertex 0 after sorting; its label moves
        assert h.labels[0] == 10
        assert sorted(h.labels.tolist()) == [10, 11, 12, 13]


class TestLabeledSymmetry:
    def test_labels_shrink_automorphisms(self):
        tri = PATTERNS["3CF"]
        assert tri.automorphism_count() == 6
        assert tri.with_labels([0, 0, 1]).automorphism_count() == 2
        assert tri.with_labels([0, 1, 2]).automorphism_count() == 1

    def test_restrictions_respect_labels(self):
        tri = tri = PATTERNS["3CF"].with_labels([0, 1, 2])
        assert symmetry_restrictions(tri) == ()

    def test_choose2_requires_matching_labels(self):
        dia = PATTERNS["DIA"].with_labels([0, 0, 1, 2])
        plan = build_plan(dia)
        assert plan.collection == "count_last"  # wings differ: no collapse

    def test_choose2_kept_when_labels_match(self):
        dia = PATTERNS["DIA"].with_labels([0, 0, 1, 1])
        assert build_plan(dia).collection == "choose2"


class TestLabeledCounting:
    @pytest.mark.parametrize(
        "name,labels",
        [
            ("3CF", (0, 0, 0)),
            ("3CF", (0, 1, 1)),
            ("DIA", (0, 0, 1, 1)),
            ("DIA", (2, 2, 2, 2)),
            ("TT", (0, 1, 1, 2)),
            ("CYC", (0, 1, 0, 1)),
            ("WEDGE", (1, 0, 0)),
        ],
    )
    def test_all_paths_agree(self, name, labels, labeled_graph):
        pat = PATTERNS[name].with_labels(labels)
        plan = build_plan(pat)
        want = count_unique_embeddings(
            labeled_graph, pat, induced=plan.induced
        )
        assert count_embeddings(labeled_graph, plan).embeddings == want
        hw = XSetAccelerator(xset_default(num_pes=2)).count(
            labeled_graph, pat, plan=plan
        )
        assert hw.embeddings == want

    @pytest.mark.parametrize(
        "name,labels,want",
        [
            ("3CF", (1, 1, 0), 25),
            ("WEDGE", (1, 0, 0), 99),
            ("DIA", (0, 0, 1, 1), 12),
        ],
    )
    def test_every_root_entry_filters_by_label(self, name, labels, want):
        """``run()``, ``run(max_vertex=n)`` and ``roots=range(n)`` root the
        same search trees: only vertices carrying the level-0 label."""
        n = 40
        g = erdos_renyi(n, 8.0, seed=8).with_labels(np.arange(n) % 2)
        plan = build_plan(PATTERNS[name].with_labels(labels))
        assert count_embeddings(g, plan).embeddings == want
        rocc = RoCCInterface(xset_default(num_pes=2))
        rocc.config_graph(g)
        rocc.config_tasklist(plan)
        rocc.run()
        assert rocc.poll().embeddings == want
        rocc.run(max_vertex=n)
        assert rocc.poll().embeddings == want
        host = HostModel(xset_default(num_pes=2))
        assert host.run(g, plan, roots=range(n)).embeddings == want

    def test_labels_only_restrict(self, labeled_graph):
        plain = count_embeddings(
            labeled_graph, build_plan(PATTERNS["3CF"])
        ).embeddings
        total_labeled = 0
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    pat = PATTERNS["3CF"].with_labels((a, b, c))
                    n = count_embeddings(
                        labeled_graph, build_plan(pat)
                    ).embeddings
                    total_labeled += n
        # every unlabelled triangle carries exactly one multiset of labels;
        # labelled plans partition by *ordered* label tuple divided by the
        # label-preserving automorphisms, so the sum over all tuples must
        # recover a consistent total
        assert total_labeled >= plain  # orbits split into >= 1 labelled class

    def test_unlabelled_graph_ignores_pattern_labels(self, medium_er):
        pat = PATTERNS["3CF"].with_labels((0, 1, 2))
        plan = build_plan(pat)
        got = count_embeddings(medium_er, plan).embeddings
        # graph has no labels: constraint is vacuous, but |Aut| shrank to 1,
        # so the count equals the *labelled-enumeration* total (6x triangles
        # counted once per ordering / 1)
        plain = count_embeddings(medium_er, build_plan(PATTERNS["3CF"])
                                 ).embeddings
        assert got == 6 * plain

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_property_random_labelled_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(16, 5.0, seed=seed).with_labels(
            rng.integers(0, 2, 16)
        )
        pat = PATTERNS["DIA"].with_labels((0, 0, 1, 1))
        plan = build_plan(pat)
        assert count_embeddings(g, plan).embeddings == (
            count_unique_embeddings(g, pat)
        )
