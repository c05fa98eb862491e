"""Full-stack property tests: random graphs × random patterns × simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import xset_default
from repro.engine.functional import (
    FrontierExpander,
    sweep_frontier,
    walk_tasks,
)
from repro.graph import erdos_renyi
from repro.memory import MemoryConfig, MemoryHierarchy
from repro.patterns import (
    PATTERNS,
    Choose,
    Const,
    MatchedInSet,
    SetSize,
    build_plan,
    count_embeddings,
    count_unique_embeddings,
    count_with_expression,
    motif_patterns,
)
from repro.sim import run_on_soc

MOTIFS4 = motif_patterns(4)


def _random_case(name, labelled, seed, n, degree):
    """A small graph, the named pattern's plan, the reference's stats."""
    g = erdos_renyi(n, degree, seed=seed)
    pattern = PATTERNS[name]
    if labelled:
        rng = np.random.default_rng(seed)
        g = g.with_labels(rng.integers(0, 2, n))
        pattern = pattern.with_labels(
            rng.integers(0, 2, pattern.num_vertices).tolist()
        )
    plan = build_plan(pattern)
    return g, plan, count_embeddings(g, plan)


_case = given(
    seed=st.integers(0, 10_000),
    n=st.integers(6, 14),
    degree=st.floats(2.0, 5.0),
)
_few = settings(max_examples=8, deadline=None, derandomize=True)


@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
@pytest.mark.parametrize("name", sorted(PATTERNS))
class TestOneInterpreterAgainstTheReference:
    """``engine.functional`` is the only ``LevelSpec`` interpreter besides
    ``patterns.executor``: both forms of it, and every fold over them, must
    reproduce what the independent executor counts."""

    @_case
    @_few
    def test_walker_op_records_are_the_references_stats(
        self, name, labelled, seed, n, degree
    ):
        g, plan, oracle = _random_case(name, labelled, seed, n, degree)
        ops = {"set_int": 0, "set_diff": 0}
        words_in = words_out = 0
        per_level = [0] * plan.depth
        for task, expansion in walk_tasks(g, plan, plan.stop_level):
            per_level[task.level - 1] += 1
            assert len(expansion.ops) == plan.levels[task.level].num_set_ops
            for rec in expansion.ops:
                ops[rec.kind] += 1
                words_in += rec.a.size + rec.b.size
                words_out += rec.out.size
        assert (
            ops["set_int"], ops["set_diff"], words_in, words_out, per_level
        ) == (
            oracle.intersections, oracle.differences, oracle.words_in,
            oracle.words_out, oracle.per_level_tasks,
        )

    @_case
    @_few
    def test_event_engine_and_host_split_count_alike(
        self, name, labelled, seed, n, degree
    ):
        g, plan, oracle = _random_case(name, labelled, seed, n, degree)
        for max_hw_levels in (1, 2, 3, 8):
            cfg = xset_default(
                num_pes=2, max_hw_levels=max_hw_levels, name="prop"
            )
            assert run_on_soc(g, plan, cfg).embeddings == oracle.embeddings

    @_case
    @_few
    def test_expression_folds(self, name, labelled, seed, n, degree):
        g, plan, oracle = _random_case(name, labelled, seed, n, degree)
        stop = plan.stop_level
        for level in range(1, stop + 1):  # one per partial embedding
            assert (
                count_with_expression(g, plan, level, Const(1))
                == oracle.per_level_tasks[level - 1]
            )
        leaf = plan.levels[stop]
        if not (leaf.upper_bounds or leaf.lower_bounds or labelled):
            # distinctness is the only filter left, and the matched
            # vertices inside the raw set are exactly what it drops
            size = SetSize(stop) - MatchedInSet(stop)
            expr = Choose(size, 2) if plan.collection == "choose2" else size
            assert (
                count_with_expression(g, plan, stop, expr)
                == oracle.embeddings
            )

    @_case
    @_few
    def test_bulk_sweep_is_chunk_invariant(
        self, name, labelled, seed, n, degree
    ):
        g, plan, oracle = _random_case(name, labelled, seed, n, degree)
        expander = FrontierExpander(g, plan)
        roots = expander.roots()
        whole = sweep_frontier(expander, roots, max(roots.shape[0], 1))
        assert whole[-1].count == oracle.embeddings
        assert [lv.tasks for lv in whole] == (
            oracle.per_level_tasks[: plan.stop_level]
        )
        for root_chunk in (1, 7, 4096):
            swept = sweep_frontier(expander, expander.roots(), root_chunk)
            assert [
                (lv.level, lv.tasks, lv.count, lv.words_in) for lv in swept
            ] == [(lv.level, lv.tasks, lv.count, lv.words_in) for lv in whole]


@given(
    seed=st.integers(0, 1000),
    motif_idx=st.integers(0, len(MOTIFS4) - 1),
    induced=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_simulator_matches_oracle_random_motifs(seed, motif_idx, induced):
    """Any 4-vertex pattern, any semantics, any random graph: exact counts."""
    g = erdos_renyi(14, 4.0, seed=seed)
    pattern = MOTIFS4[motif_idx]
    plan = build_plan(pattern, induced=induced)
    report = run_on_soc(g, plan, xset_default(num_pes=2))
    assert report.embeddings == count_unique_embeddings(
        g, pattern, induced=induced
    )


@given(
    seed=st.integers(0, 100),
    sius=st.integers(1, 4),
    width=st.sampled_from([0, 4, 8]),
    sched=st.sampled_from(["barrier-free", "pseudo-dfs", "dfs", "shogun"]),
)
@settings(max_examples=20, deadline=None)
def test_any_configuration_is_exact(seed, sius, width, sched):
    g = erdos_renyi(20, 5.0, seed=seed)
    pattern = MOTIFS4[2]
    plan = build_plan(pattern, induced=False)
    cfg = xset_default(
        num_pes=2, sius_per_pe=sius, bitmap_width=width, scheduler=sched,
        name="prop",
    )
    report = run_on_soc(g, plan, cfg)
    assert report.embeddings == count_unique_embeddings(g, pattern)
    assert report.cycles > 0


class TestMemoryFuzz:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 3),                 # pe
                st.integers(0, 1 << 20),           # word address
                st.integers(0, 200),               # words
            ),
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_invariants(self, ops):
        h = MemoryHierarchy(MemoryConfig(num_pes=4, private_kb=2,
                                         shared_mb=1 / 16))

        def counters(pe):
            priv = h.private[pe].stats
            return (priv.accesses, priv.misses, h.shared.stats.misses,
                    h.dram.stats.requests)

        now = 0.0
        for pe, addr, words in ops:
            before = counters(pe)
            first_latency, stream_cycles = h.stream_read(now, pe, addr, words)
            assert first_latency >= 0
            assert stream_cycles >= 0
            lines, private_misses, shared_misses, dram_requests = (
                a - b for a, b in zip(counters(pe), before)
            )
            assert lines == (
                (addr + words - 1) // 16 - addr // 16 + 1 if words else 0
            )
            assert dram_requests == shared_misses <= private_misses <= lines
            now += 1.0
        # LRU occupancy never exceeds capacity
        for cache in h.private:
            assert cache.occupancy <= cache.config.num_lines
        assert h.shared.occupancy <= h.shared.config.num_lines

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_rereads_never_slower(self, seed):
        """A warm re-read of the same stream never costs more than cold."""
        rng = np.random.default_rng(seed)
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        addr = int(rng.integers(0, 1 << 16)) * 16
        words = int(rng.integers(1, 300))
        cold = sum(h.stream_read(0.0, 0, addr, words))
        warm = sum(h.stream_read(1000.0, 0, addr, words))
        assert warm <= cold + 1e-9
