"""Incremental dynamic-graph counting vs from-scratch recounts."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalGPM, edge_delta
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, erdos_renyi
from repro.patterns import PATTERNS, Pattern, build_plan, count_embeddings
from repro.patterns.plan import anchored_plans


@st.composite
def delta_cases(draw):
    """A small random graph, a pattern and plan semantics, and a vertex
    pair whose edge is toggled.  Labelled cases draw graph labels from
    {0, 1, 2} and pattern labels from {0, 1}, so some pairs carry a label
    pair that no pattern pair has."""
    name = draw(st.sampled_from(sorted(PATTERNS)))
    pattern = PATTERNS[name]
    n = draw(st.integers(pattern.num_vertices, 11))
    pairs = [(u, v) for u in range(n) for v in range(u)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    g = CSRGraph.from_edges(n, edges)
    if draw(st.booleans()):
        g = g.with_labels(draw(st.lists(
            st.integers(0, 2), min_size=n, max_size=n,
        )))
        pattern = pattern.with_labels(draw(st.lists(
            st.integers(0, 1), min_size=pattern.num_vertices,
            max_size=pattern.num_vertices,
        )))
    u, v = draw(st.sampled_from(pairs))
    if draw(st.booleans()):
        u, v = v, u
    return g, pattern, draw(st.booleans()), u, v


class TestEdgeDelta:
    @given(delta_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_delta_is_the_recount_difference(self, case):
        g, pattern, induced, u, v = case
        inc = IncrementalGPM(g, pattern, induced=induced)
        assert inc.count == _recount(inc)
        for _ in range(2):  # an insert and a removal, in either order
            before, count = inc.snapshot(), _recount(inc)
            delta = _toggle(inc, u, v)
            assert delta == _recount(inc) - count
            assert inc.count == count + delta
            # the write counted on the snapshot after the edit; the one
            # before it gives the same delta
            sign = 1 if inc.has_edge(u, v) else -1
            assert sign * edge_delta(before, u, v, inc.plan) == delta

    def test_an_induced_plan_reaches_from_its_non_edges(self):
        # two leaves of a claw are a non-edge: closing it destroys the
        # induced claw, which the non-induced plan keeps
        claw = Pattern.from_edges("claw", [(0, 1), (0, 2), (0, 3)])
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        for induced, delta in ((True, -1), (False, 0)):
            inc = IncrementalGPM(g, claw, induced=induced)
            assert inc.count == 1
            assert inc.insert_edge(1, 2) == delta
            assert inc.count == _recount(inc) == 1 + delta

    @pytest.mark.parametrize(
        "name,induced,runs",
        [("3CF", False, [(1, 1)]), ("DIA", False, [(2, 1), (2, 2)]),
         ("WEDGE", True, [(1, 2), (1, 1)])],
    )
    def test_seeded_runs(self, name, induced, runs):
        """Per orbit of pattern pairs up to reversal: the levels its plan
        runs below the seed, and the seed rows (two: both directions)."""
        _, anchors = anchored_plans(PATTERNS[name], induced)
        assert [
            (a.plan.stop_level - 1, 1 + a.mirrored) for a in anchors
        ] == runs


def _recount(inc: IncrementalGPM) -> int:
    return count_embeddings(inc.snapshot(), inc.plan).embeddings


class TestIncremental:
    @pytest.mark.parametrize("pattern", ["3CF", "DIA", "CYC"])
    def test_random_update_stream(self, pattern):
        rng = np.random.default_rng(3)
        g = erdos_renyi(40, 6.0, seed=8)
        inc = IncrementalGPM(g, PATTERNS[pattern])
        assert inc.count == _recount(inc)
        for _ in range(25):
            u, v = rng.integers(0, 40, 2)
            if u == v:
                continue
            if inc.has_edge(int(u), int(v)):
                inc.remove_edge(int(u), int(v))
            else:
                inc.insert_edge(int(u), int(v))
            assert inc.count == _recount(inc)

    def test_insert_then_remove_is_identity(self):
        g = erdos_renyi(30, 5.0, seed=2)
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        base = inc.count
        d1 = inc.insert_edge(0, 1) if not inc.has_edge(0, 1) else 0
        d2 = inc.remove_edge(0, 1)
        assert d1 + d2 == 0 or inc.count == base

    def test_duplicate_insert_is_noop(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        assert inc.insert_edge(0, 1) == 0
        assert inc.updates_applied == 0

    def test_missing_remove_is_noop(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        assert inc.remove_edge(1, 2) == 0

    def test_triangle_closure_delta(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        assert inc.count == 0
        assert inc.insert_edge(0, 2) == 1
        assert inc.count == 1
        assert inc.remove_edge(0, 1) == -1
        assert inc.count == 0

    def test_self_loop_rejected(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        with pytest.raises(GraphFormatError):
            inc.insert_edge(1, 1)

    def test_out_of_range_rejected(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        with pytest.raises(GraphFormatError):
            inc.insert_edge(0, 7)

    def test_induced_pattern_can_lose_embeddings_on_insert(self):
        # path 0-1-2 is an induced wedge; closing it destroys the wedge
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        inc = IncrementalGPM(g, PATTERNS["WEDGE"], induced=True)
        assert inc.count == 1
        delta = inc.insert_edge(0, 2)
        assert delta == -1
        assert inc.count == 0


N = 24
STREAM_CASES = {
    "3CF": (PATTERNS["3CF"], None, None),
    "DIA": (PATTERNS["DIA"], None, None),
    "CYC": (PATTERNS["CYC"], None, None),
    "TT": (PATTERNS["TT"], None, None),
    "4CF": (PATTERNS["4CF"], None, None),
    "HOUSE": (PATTERNS["HOUSE"], None, None),
    "C5": (PATTERNS["C5"], None, None),
    "P3-induced": (PATTERNS["P3"], True, None),
    "TT-noninduced": (PATTERNS["TT"], False, None),
    "CYC-noninduced": (PATTERNS["CYC"], False, None),
    "WEDGE-induced": (PATTERNS["WEDGE"], True, None),
    "3CF-labelled": (
        PATTERNS["3CF"].with_labels([0, 0, 1]), None, np.arange(N) % 2,
    ),
}


def _toggle(inc: IncrementalGPM, u: int, v: int) -> int:
    if inc.has_edge(u, v):
        return inc.remove_edge(u, v)
    return inc.insert_edge(u, v)


class TestSnapshotStream:
    """The held snapshot and the maintained count, checked after every step
    against a from-scratch rebuild and the reference executor."""

    @pytest.mark.parametrize("case", STREAM_CASES)
    @given(
        seed=st.integers(0, 50),
        toggles=st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
            .filter(lambda e: e[0] != e[1]),
            min_size=1, max_size=10,
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_count_and_snapshot_after_every_toggle(self, case, seed, toggles):
        pattern, induced, labels = STREAM_CASES[case]
        g = erdos_renyi(N, 5.0, seed=seed, name="stream")
        if labels is not None:
            g = g.with_labels(labels)
        g.base_address = 0x2000_0000
        inc = IncrementalGPM(g, pattern, induced=induced)
        assert inc.count == _recount(inc)
        edges = set(g.edges())
        for u, v in toggles:
            delta = _toggle(inc, u, v)
            edges ^= {(min(u, v), max(u, v))}
            snap = inc.snapshot()
            assert inc.count == _recount(inc)
            if not inc.plan.induced:  # inserts add embeddings, removes drop
                assert delta >= 0 if inc.has_edge(u, v) else delta <= 0
            rebuilt = CSRGraph.from_edges(N, sorted(edges))
            assert snap.indptr.tobytes() == rebuilt.indptr.tobytes()
            assert snap.indices.tobytes() == rebuilt.indices.tobytes()
            assert snap.indices.dtype == rebuilt.indices.dtype
            if labels is None:
                assert snap.labels is None
            else:
                assert snap.labels.tobytes() == g.labels.tobytes()
            assert (snap.name, snap.base_address) == ("stream", 0x2000_0000)
        assert inc.updates_applied == len(toggles)

    def test_labels_survive_writes(self):
        # at f87bc3f the first write dropped the labels: the stream below
        # ended at 42, the unlabelled triangles through the toggled edges
        g = erdos_renyi(40, 8.0, seed=8).with_labels(np.arange(40) % 2)
        inc = IncrementalGPM(g, PATTERNS["3CF"].with_labels([0, 0, 1]))
        rng = np.random.default_rng(0)
        applied = 0
        while applied < 15:
            u, v = map(int, rng.integers(0, 40, 2))
            if u != v:
                _toggle(inc, u, v)
                applied += 1
        assert np.array_equal(inc.snapshot().labels, g.labels)
        assert inc.count == _recount(inc)

    def test_snapshot_is_the_held_graph(self):
        g = erdos_renyi(30, 5.0, seed=2)
        inc = IncrementalGPM(g, PATTERNS["3CF"])
        assert inc.snapshot() is g  # no copy before the first write
        edges = g.num_edges
        inc.insert_edge(*next(
            (u, v) for u in range(30) for v in range(u) if not g.has_edge(u, v)
        ))
        assert inc.snapshot() is inc.snapshot()
        assert inc.snapshot().num_edges == edges + 1
        assert g.num_edges == edges  # the input graph is never written to

    def test_write_work_does_not_grow_with_the_graph(self):
        """No clock: the Python-level calls of one write are the same on a
        graph ten times larger, so no per-edge interpreter loop is left."""

        def calls_per_write(n: int) -> float:
            g = erdos_renyi(n, 8.0, seed=1)
            inc = IncrementalGPM(g, PATTERNS["3CF"])
            rng = np.random.default_rng(5)
            pairs = [
                (int(u), int(v))
                for u, v in rng.integers(0, n, (12, 2)) if u != v
            ]
            _toggle(inc, *pairs[0])  # imports and lazy set-up
            calls = 0

            def profiler(frame, event, arg):
                nonlocal calls
                calls += event in ("call", "c_call")

            sys.setprofile(profiler)
            try:
                for u, v in pairs[1:]:
                    _toggle(inc, u, v)
                    inc.snapshot()
            finally:
                sys.setprofile(None)
            assert inc.count == _recount(inc)
            return calls / (len(pairs) - 1)

        small, large = calls_per_write(500), calls_per_write(5000)
        assert small == pytest.approx(large, rel=0.10)
