"""Tests for the area/power model, baseline models, and the core API."""

import pytest

from repro.baselines import (
    GLUMIN,
    GRAPHPI,
    GRAPHSET,
    compare_accelerators,
    compute_density_speedup,
)
from repro.core import (
    XSetAccelerator,
    config_table,
    count_motifs3,
    xset_default,
)
from repro.errors import ConfigError
from repro.hw import (
    pe_area_breakdown,
    scheduler_area_power,
    siu_area_power,
    theory_table_rows,
)
from repro.patterns import PATTERNS, count_embeddings, build_plan


class TestAreaModel:
    def test_pe_breakdown_matches_table4(self):
        bd = pe_area_breakdown()
        assert bd["control"] == pytest.approx(0.044, abs=0.004)
        assert bd["compute"] == pytest.approx(0.077, abs=0.006)
        assert bd["cache"] == pytest.approx(0.174, abs=0.005)
        assert bd["total"] == pytest.approx(0.305, abs=0.015)

    def test_order_aware_beats_sma_at_every_width(self):
        for n in (2, 4, 8, 16):
            oa = siu_area_power("order-aware", n)
            sma = siu_area_power("sma", n)
            assert oa.total_mm2 < sma.total_mm2
            assert oa.total_mw < sma.total_mw

    def test_savings_grow_with_width(self):
        """Figure 15: area/power advantage widens as N grows."""
        savings = [
            1 - siu_area_power("order-aware", n).total_mm2
            / siu_area_power("sma", n).total_mm2
            for n in (2, 4, 8, 16)
        ]
        assert savings == sorted(savings)
        assert 0.3 < savings[0] < savings[-1] < 0.85

    def test_power_saving_at_16_matches_paper_band(self):
        oa = siu_area_power("order-aware", 16)
        sma = siu_area_power("sma", 16)
        assert 1 - oa.total_mw / sma.total_mw == pytest.approx(0.754, abs=0.08)

    def test_merge_queue_tiny(self):
        mq = siu_area_power("merge", 1)
        assert mq.total_mm2 < siu_area_power("order-aware", 8).total_mm2 / 5

    def test_scheduler_area(self):
        area, power = scheduler_area_power()
        assert area == pytest.approx(0.044, abs=0.004)
        assert power > 0

    def test_io_held_constant_between_designs(self):
        oa = siu_area_power("order-aware", 8)
        sma = siu_area_power("sma", 8)
        assert oa.input_mm2 == sma.input_mm2
        assert oa.output_mm2 == sma.output_mm2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            siu_area_power("tpu", 8)

    def test_theory_table(self):
        rows = theory_table_rows(8)
        by_name = {r["architecture"]: r for r in rows}
        assert by_name["Merge Queue"]["comparators_n"] == 1
        assert by_name["Systolic Array"]["comparators_n"] == 64
        assert by_name["Order-Aware (ours)"]["comparators_n"] == 21
        assert by_name["Order-Aware (ours)"]["latency_n"] == 8


def _price(model, graph, pattern):
    """``model``'s time for ``pattern`` on ``graph``, priced from the
    reference walk as ``benchmarks/bench_fig12_software.py`` does."""
    plan = build_plan(PATTERNS[pattern])
    return model.estimate(graph, plan, count_embeddings(graph, plan))


class TestSoftwareBaselines:
    def test_cpu_models_ordering(self, skewed_graph):
        """GraphSet must beat GraphPi on the same workload."""
        pi = _price(GRAPHPI, skewed_graph, "3CF")
        st = _price(GRAPHSET, skewed_graph, "3CF")
        assert st.seconds < pi.seconds
        assert pi.embeddings == st.embeddings

    def test_gpu_model_runs(self, skewed_graph):
        r = _price(GLUMIN, skewed_graph, "3CF")
        assert r.seconds > 0
        assert r.bound in ("compute", "memory")

    def test_baseline_counts_exact(self, medium_er):
        want = count_embeddings(
            medium_er, build_plan(PATTERNS["DIA"])
        ).embeddings
        assert _price(GRAPHPI, medium_er, "DIA").embeddings == want

    def test_more_work_costs_more(self, medium_er, skewed_graph):
        small = _price(GRAPHPI, medium_er, "3CF")
        big = _price(GRAPHPI, skewed_graph, "3CF")
        assert big.seconds > small.seconds


class TestAcceleratorComparison:
    def test_compare_runs_all_four(self, medium_er):
        cmp = compare_accelerators(medium_er, PATTERNS["3CF"])
        assert set(cmp.reports) == {"xset", "flexminer", "fingers", "shogun"}
        counts = {r.embeddings for r in cmp.reports.values()}
        assert len(counts) == 1  # all functional results identical

    def test_speedup_definition(self, medium_er):
        cmp = compare_accelerators(medium_er, PATTERNS["3CF"])
        s = cmp.speedup_over("xset")
        assert s == pytest.approx(
            cmp.seconds("flexminer") / cmp.seconds("xset")
        )

    def test_compute_density_favors_small_pe(self, medium_er):
        cmp = compare_accelerators(medium_er, PATTERNS["3CF"])
        density = compute_density_speedup(cmp, "xset", "fingers")
        end2end = cmp.seconds("fingers") / cmp.seconds("xset")
        # X-SET's PE is ~3x smaller than FINGERS': density gain > raw gain
        assert density > end2end


class TestCoreAPI:
    def test_count_and_enumerate_agree(self, medium_er):
        accel = XSetAccelerator()
        report = accel.count(medium_er, PATTERNS["3CF"])
        enumerated = sum(1 for _ in accel.enumerate(medium_er, PATTERNS["3CF"]))
        assert report.embeddings == enumerated

    def test_count_many(self, medium_er):
        accel = XSetAccelerator()
        reports = accel.count_many(
            medium_er, [PATTERNS["3CF"], PATTERNS["DIA"]]
        )
        assert set(reports) == {"3CF", "DIA"}

    def test_motif3(self, medium_er):
        motifs = count_motifs3(medium_er)
        assert motifs["triangle"] > 0
        assert motifs["wedge"] > 0

    def test_config_table_renders(self):
        text = config_table()
        assert "16" in text and "4.0MB" in text

    def test_config_overrides(self):
        cfg = xset_default(num_pes=4)
        assert cfg.num_pes == 4
        assert xset_default().num_pes == 16

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            xset_default(num_pes=0)
        with pytest.raises(ConfigError):
            xset_default(segment_width=6)

    def test_lazy_package_exports(self):
        import repro

        assert repro.PATTERNS["3CF"].num_vertices == 3
        assert repro.SystemConfig().num_pes == 16
        with pytest.raises(AttributeError):
            repro.does_not_exist
