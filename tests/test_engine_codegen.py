"""The ``codegen`` engine: compiled-kernel execution end to end.

Source-level specialisation is covered in ``test_patterns_codegen.py``;
this file pins down the *engine* contract — equivalence with the other
backends on labelled/enumerate/chunked workloads, report parity with
``batched``, service dispatch, crash retry and the cross-check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SystemConfig, XSetAccelerator, xset_default
from repro.engine import get_engine
from repro.engine.codegen import CodegenEngine
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.patterns.executor import count_embeddings
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.service import QueryService


def run_codegen(graph, plan, **cfg):
    config = xset_default(engine="codegen", **cfg)
    return get_engine("codegen").run(graph, plan, config)


@pytest.fixture
def labeled_graph():
    g = erdos_renyi(140, 9.0, seed=21, name="cg-labeled")
    g.labels = np.arange(g.num_vertices, dtype=np.int64) % 4
    return g


class TestEquivalenceExtras:
    def test_labeled_graph_matches_batched(self, labeled_graph):
        cfg_b = xset_default(engine="batched")
        for name in sorted(PATTERNS):
            plan = build_plan(PATTERNS[name])
            ba = get_engine("batched").run(labeled_graph, plan, cfg_b)
            cg = run_codegen(labeled_graph, plan)
            assert cg.embeddings == ba.embeddings, name
            assert cg.cycles == ba.cycles, name

    def test_enumerate_collection(self, medium_er):
        plan = build_plan(PATTERNS["DIA"], collection="enumerate")
        want = count_embeddings(medium_er, plan).embeddings
        assert run_codegen(medium_er, plan).embeddings == want

    def test_explicit_roots_subset(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        roots = np.arange(0, medium_er.num_vertices, 2)
        cfg = xset_default(engine="codegen")
        got = get_engine("codegen").run(medium_er, plan, cfg, roots=roots)
        want = get_engine("batched").run(
            medium_er, plan, xset_default(engine="batched"), roots=roots
        )
        assert got.embeddings == want.embeddings

    def test_root_chunking_preserves_counts(self, skewed_graph):
        plan = build_plan(PATTERNS["TT"])
        want = count_embeddings(skewed_graph, plan).embeddings
        engine = CodegenEngine(root_chunk=13)  # force many partial chunks
        cfg = xset_default(engine="codegen")
        assert engine.run(skewed_graph, plan, cfg).embeddings == want

    def test_bitmap_width_configs_agree(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        counts = {
            w: run_codegen(medium_er, plan, bitmap_width=w).embeddings
            for w in (0, 32, 64)
        }
        assert len(set(counts.values())) == 1


class TestReportParity:
    def test_full_report_fields_match_batched(self, medium_er):
        plan = build_plan(PATTERNS["HOUSE"])
        ba = get_engine("batched").run(
            medium_er, plan, xset_default(engine="batched")
        )
        cg = run_codegen(medium_er, plan)
        for field in ("embeddings", "cycles", "tasks", "set_ops",
                      "comparisons", "words_in", "words_out", "dram_bytes"):
            assert getattr(cg, field) == getattr(ba, field), field

    def test_wall_seconds_populated(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        assert run_codegen(medium_er, plan).wall_seconds >= 0


class TestApiSurface:
    def test_accelerator_engine_kwarg(self, medium_er):
        accel = XSetAccelerator(engine="codegen")
        want = count_embeddings(
            medium_er, build_plan(PATTERNS["3CF"])
        ).embeddings
        assert accel.count(medium_er, PATTERNS["3CF"]).embeddings == want

    def test_config_accepts_codegen(self):
        assert SystemConfig(engine="codegen").engine == "codegen"

    def test_cli_engine_choice(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["count", "--engine", "codegen"])
        assert args.engine == "codegen"

    def test_service_dispatch(self, medium_er):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(medium_er, "g")
            report = svc.count(gid, PATTERNS["TT"], engine="codegen")
        want = count_embeddings(
            medium_er, build_plan(PATTERNS["TT"])
        ).embeddings
        assert report.embeddings == want


class TestResilienceRouting:
    def test_injected_crash_site_fires(self, small_er):
        svc = QueryService(mode="inline")
        gid = svc.register_graph(small_er, "g")
        svc.arm_faults(FaultPlan(seed=1, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                      rate=1.0, max_fires=1),
        )))
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                            use_cache=False)
        report = handle.result(timeout=60)
        want = count_embeddings(
            small_er, build_plan(PATTERNS["3CF"])
        ).embeddings
        # the retry on codegen, in a fresh worker, recovers the exact count
        assert report.embeddings == want
        assert handle.engine == "codegen"
        assert svc.stats().retries == 1

    def test_sampled_crosscheck_verifies_against_event(self, small_er):
        svc = QueryService(mode="inline", verify_fraction=1.0)
        gid = svc.register_graph(small_er, "g")
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                            use_cache=False)
        report = handle.result(timeout=60)
        check = report.notes.get("crosscheck")
        assert check is not None
        assert check["verify_engine"] == "event"
        assert not check["mismatch"]
