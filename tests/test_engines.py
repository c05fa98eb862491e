"""Engine layer tests: engine table, config plumbing and backend equivalence.

The contract of the engine layer is that both engines compute
the *same embedding counts* — backends differ only in how they model time.
The equivalence tests here pin that down for every pattern in ``PATTERNS``
over random graphs, against the software reference executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SystemConfig, XSetAccelerator, xset_default
from repro.errors import ConfigError
from repro.engine import Engine, available_engines, get_engine
from repro.engine.functional import FrontierExpander, sweep_frontier
from repro.graph import erdos_renyi, powerlaw_graph
from repro.patterns import PATTERNS, build_plan
from repro.patterns.executor import count_embeddings
from repro.sim.report import SimReport


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_builtin_engines_listed(self):
        assert available_engines() == ("codegen", "event")

    def test_get_engine_returns_singletons(self):
        assert get_engine("event") is get_engine("event")
        assert get_engine("codegen") is get_engine("codegen")

    def test_engine_names_match(self):
        for name in available_engines():
            assert get_engine(name).name == name

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigError, match="unknown execution engine"):
            get_engine("quantum")

    def test_engines_implement_protocol(self):
        for name in available_engines():
            assert isinstance(get_engine(name), Engine)

    def test_batched_is_only_an_alias_of_codegen(self):
        # the benchmark's engine.batched_mcu rows still name "batched";
        # this test goes with the alias once they stop
        assert get_engine("batched") is get_engine("codegen")
        assert "batched" not in available_engines()
        with pytest.raises(ConfigError, match="unknown execution engine"):
            xset_default(engine="batched")


# -- config / API / CLI plumbing ---------------------------------------------


class TestSelection:
    def test_default_engine_is_event(self):
        assert xset_default().engine == "event"

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            SystemConfig(engine="nope")

    def test_config_override(self):
        cfg = xset_default(engine="codegen")
        assert cfg.engine == "codegen"

    def test_accelerator_engine_kwarg(self):
        accel = XSetAccelerator(engine="codegen")
        assert accel.config.engine == "codegen"

    def test_cli_engine_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["count", "--engine", "codegen"]
        )
        assert args.engine == "codegen"

    def test_cli_rejects_unknown_engine(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--engine", "warp"])


# -- backend equivalence ------------------------------------------------------


def _count_with(engine_name: str, graph, plan) -> SimReport:
    cfg = xset_default(engine=engine_name)
    report = get_engine(engine_name).run(graph, plan, cfg)
    assert isinstance(report, SimReport)
    return report


#: the full backend matrix — every test below must hold for both
ENGINES = ("event", "codegen")

#: the fast backend, safe to run against the larger graph fixtures
FAST_ENGINES = ("codegen",)


class TestEquivalence:
    """Every backend must match the reference count on every pattern."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_matches_reference_er(self, engine, name, medium_er):
        plan = build_plan(PATTERNS[name])
        want = count_embeddings(medium_er, plan).embeddings
        got = _count_with(engine, medium_er, plan).embeddings
        assert got == want

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_matches_reference_skewed(self, engine, name, skewed_graph):
        plan = build_plan(PATTERNS[name])
        want = count_embeddings(skewed_graph, plan).embeddings
        got = _count_with(engine, skewed_graph, plan).embeddings
        assert got == want

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_all_engines_agree(self, name, small_er):
        plan = build_plan(PATTERNS[name])
        counts = {
            engine: _count_with(engine, small_er, plan).embeddings
            for engine in ENGINES
        }
        assert len(set(counts.values())) == 1, counts

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_triangle_family(self, engine, seed):
        g = erdos_renyi(45, 7.0, seed=seed, name=f"er45-{seed}")
        for name in ("3CF", "4CF", "TT", "DIA"):
            plan = build_plan(PATTERNS[name])
            want = count_embeddings(g, plan).embeddings
            assert _count_with(engine, g, plan).embeddings == want

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_powerlaw_hub_graph(self, engine):
        g = powerlaw_graph(150, avg_degree=5.0, max_degree=60, seed=9,
                           triangle_boost=0.4, name="pl150")
        for name in sorted(PATTERNS):
            plan = build_plan(PATTERNS[name])
            want = count_embeddings(g, plan).embeddings
            assert _count_with(engine, g, plan).embeddings == want

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_graph(self, engine):
        from repro.graph import CSRGraph

        g = CSRGraph.empty(8)
        for name in ("3CF", "WEDGE"):
            plan = build_plan(PATTERNS[name])
            assert _count_with(engine, g, plan).embeddings == 0


class TestCodegenReport:
    def test_report_fields_populated(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        report = _count_with("codegen", medium_er, plan)
        assert report.cycles > 0
        assert report.tasks > 0
        assert report.words_in > 0
        assert report.dram_bytes > 0
        assert report.wall_seconds >= 0


class TestFrontierExpander:
    def test_expand_frontier_levels(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        ex = FrontierExpander(medium_er, plan)
        roots = ex.roots()
        levels = sweep_frontier(ex, roots, roots.shape[0])
        assert [lv.level for lv in levels] == [1, 2]
        want = count_embeddings(medium_er, plan).embeddings
        assert levels[-1].count == want

    def test_root_label_filtering(self):
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g.labels = np.array([0, 1, 0, 1])
        plan = build_plan(PATTERNS["WEDGE"])
        ex = FrontierExpander(g, plan)
        roots = ex.roots()
        assert roots.shape == (4, 1)

    def test_adjacency_oracle_fallback(self, small_er):
        """Bitset and edge-key oracles must answer identically."""
        from repro.setops.bulk import (
            bulk_adjacency,
            bulk_adjacency_bits,
            edge_keys,
            packed_adjacency,
        )

        rng = np.random.default_rng(7)
        u = rng.integers(0, small_er.num_vertices, 500)
        v = rng.integers(0, small_er.num_vertices, 500)
        bits = packed_adjacency(small_er)
        assert bits is not None
        keys = edge_keys(small_er)
        got_bits = bulk_adjacency_bits(bits, u, v)
        got_keys = bulk_adjacency(keys, small_er.num_vertices, u, v)
        assert np.array_equal(got_bits, got_keys)

    def test_packed_adjacency_size_cap(self, small_er):
        from repro.setops.bulk import packed_adjacency

        assert packed_adjacency(small_er, max_vertices=10) is None
