"""Task-list code generation, binary encoding and kernel-cache tests."""

import pytest

from repro.errors import PlanError
from repro.patterns import PATTERNS, build_plan, codegen
from repro.patterns.codegen import (
    TaskOp,
    _decode_src,
    _encode_src,
    clear_kernel_cache,
    compile_plan_kernel,
    compile_task_list,
    decode_task_op,
    emit_plan_source,
    encode_task_op,
    kernel_cache_info,
    kernel_cache_key,
    render_task_list,
)

ALL = ["3CF", "4CF", "5CF", "TT", "CYC", "DIA", "HOUSE", "WEDGE"]


class TestCompile:
    def test_triangle_ops(self):
        ops = compile_task_list(build_plan(PATTERNS["3CF"]))
        assert [o.opcode for o in ops] == ["load", "set_int"]
        leaf = ops[-1]
        assert leaf.count_only and not leaf.store
        assert leaf.filter_lt == 1  # u2 < u1

    def test_clique_chain_uses_stored_sets(self):
        ops = compile_task_list(build_plan(PATTERNS["5CF"]))
        stored_srcs = [o for o in ops if o.src_a[0] == "S"]
        assert len(stored_srcs) >= 2  # prefix reuse compiled through

    def test_induced_cycle_has_set_diff(self):
        ops = compile_task_list(build_plan(PATTERNS["CYC"]))
        assert any(o.opcode == "set_diff" for o in ops)

    def test_diamond_choose2_stops_early(self):
        ops = compile_task_list(build_plan(PATTERNS["DIA"]))
        assert max(o.level for o in ops) == 2  # levels 3 collapsed by IEP

    def test_internal_levels_store(self):
        ops = compile_task_list(build_plan(PATTERNS["4CF"]))
        internal = [o for o in ops if o.level < max(p.level for p in ops)]
        assert all(o.store for o in internal if o.src_b is None or True)

    @pytest.mark.parametrize("name", ALL)
    def test_every_pattern_compiles(self, name):
        ops = compile_task_list(build_plan(PATTERNS[name]))
        assert ops
        assert ops[-1].count_only


class TestRender:
    def test_figure10e_style(self):
        ops = compile_task_list(build_plan(PATTERNS["3CF"]))
        text = ops[-1].render()
        assert text.startswith("R[2] <- set_int")
        assert "filter<u1" in text
        assert "count_only" in text

    def test_full_listing_has_rocc_flow(self):
        text = render_task_list(build_plan(PATTERNS["DIA"]))
        assert "xset_config" in text
        assert "xset_run" in text
        assert "xset_poll" in text


class TestEncoding:
    @pytest.mark.parametrize("name", ALL)
    def test_roundtrip_every_pattern(self, name):
        for op in compile_task_list(build_plan(PATTERNS[name])):
            assert decode_task_op(encode_task_op(op)) == op

    def test_word_is_compact(self):
        ops = compile_task_list(build_plan(PATTERNS["5CF"]))
        assert all(encode_task_op(o) < (1 << 25) for o in ops)

    def test_out_of_range_rejected(self):
        bad = TaskOp(
            level=1, opcode="load", src_a=("S", 12), src_b=None,
            filter_lt=None, filter_gt=None, count_only=False, store=True,
        )
        with pytest.raises(PlanError):
            encode_task_op(bad)


class TestSrcEncodingBoundaries:
    """The 4-bit source field: sentinel and width-limit behaviour."""

    def test_none_maps_to_sentinel(self):
        assert _encode_src(None) == 15
        assert _decode_src(15) is None

    @pytest.mark.parametrize("idx", [0, 7])
    def test_stored_set_width_extremes_roundtrip(self, idx):
        assert _decode_src(_encode_src(("S", idx))) == ("S", idx)

    @pytest.mark.parametrize("idx", [0, 6])
    def test_neighbour_width_extremes_roundtrip(self, idx):
        assert _decode_src(_encode_src(("N", idx))) == ("N", idx)

    def test_stored_set_eight_rejected(self):
        # S-indices occupy codes 0-7; 8 would collide with N(u0)
        with pytest.raises(PlanError, match="out of range"):
            _encode_src(("S", 8))

    def test_neighbour_seven_rejected(self):
        # N-indices occupy codes 8-14; 7 would collide with the sentinel
        with pytest.raises(PlanError, match="out of range"):
            _encode_src(("N", 7))

    @pytest.mark.parametrize("kind", ["S", "N"])
    def test_negative_rejected(self, kind):
        with pytest.raises(PlanError, match="out of range"):
            _encode_src((kind, -1))

    def test_codes_cover_the_field_without_overlap(self):
        codes = {_encode_src(("S", i)) for i in range(8)}
        codes |= {_encode_src(("N", i)) for i in range(7)}
        codes.add(_encode_src(None))
        assert codes == set(range(16))

    def test_max_width_task_op_roundtrips(self):
        op = TaskOp(
            level=15, opcode="set_diff", src_a=("S", 7), src_b=("N", 6),
            filter_lt=14, filter_gt=14, count_only=True, store=True,
        )
        assert decode_task_op(encode_task_op(op)) == op
        assert encode_task_op(op) < (1 << 25)


class TestKernelCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_kernel_cache()
        yield
        clear_kernel_cache()

    def test_same_plan_hits(self):
        plan = build_plan(PATTERNS["3CF"])
        k1 = compile_plan_kernel(plan)
        k2 = compile_plan_kernel(plan)
        assert k1 is k2
        info = kernel_cache_info()
        assert info == {"size": 1, "hits": 1, "misses": 1}

    def test_equal_plans_share_a_kernel(self):
        # two independently built (equal) plans must key identically
        k1 = compile_plan_kernel(build_plan(PATTERNS["TT"]))
        k2 = compile_plan_kernel(build_plan(PATTERNS["TT"]))
        assert k1 is k2

    def test_configs_share_kernels(self):
        # SystemConfig knobs never reach the emitted source, so the cache
        # key must not depend on them: one kernel serves every config
        plan = build_plan(PATTERNS["3CF"])
        key = kernel_cache_key(plan)
        assert key == kernel_cache_key(plan)
        from repro.core import xset_default

        cfg_a = xset_default(engine="codegen")
        cfg_b = xset_default(engine="codegen", num_pes=4, bitmap_width=64)
        # the key is a pure function of the plan + labelledness; configs
        # do not participate at all
        assert kernel_cache_key(plan) == key
        assert cfg_a != cfg_b  # the configs really do differ

    def test_distinct_plans_miss(self):
        compile_plan_kernel(build_plan(PATTERNS["3CF"]))
        compile_plan_kernel(build_plan(PATTERNS["TT"]))
        info = kernel_cache_info()
        assert info["size"] == 2
        assert info["misses"] == 2

    def test_labelledness_is_part_of_the_key(self):
        plan = build_plan(PATTERNS["3CF"])
        k_plain = compile_plan_kernel(plan, use_labels=False)
        k_label = compile_plan_kernel(plan, use_labels=True)
        assert k_plain is not k_label
        assert kernel_cache_info()["size"] == 2

    def test_collection_mode_is_part_of_the_key(self):
        a = build_plan(PATTERNS["DIA"])  # choose2 by default
        b = build_plan(PATTERNS["DIA"], collection="enumerate")
        assert kernel_cache_key(a) != kernel_cache_key(b)

    def test_the_least_recently_used_kernel_is_dropped(self, monkeypatch):
        monkeypatch.setattr(codegen, "KERNEL_CACHE_LIMIT", 2)
        tri, tt, dia = (build_plan(PATTERNS[n]) for n in ("3CF", "TT", "DIA"))
        first = compile_plan_kernel(tri)
        evicted = compile_plan_kernel(tt)
        compile_plan_kernel(tri)  # 3CF is now the more recent of the two
        compile_plan_kernel(dia)  # evicts TT
        assert kernel_cache_info() == {"size": 2, "hits": 1, "misses": 3}
        assert compile_plan_kernel(tri) is first
        again = compile_plan_kernel(tt)  # recompiled, evicting DIA
        assert kernel_cache_info()["misses"] == 4
        assert again is not evicted and again.source == evicted.source
        assert kernel_cache_info()["size"] == 2

    def test_clear_resets_everything(self):
        compile_plan_kernel(build_plan(PATTERNS["3CF"]))
        clear_kernel_cache()
        assert kernel_cache_info() == {"size": 0, "hits": 0, "misses": 0}


class TestEmittedSource:
    def test_single_bound_fuses_to_one_comparison(self):
        # TT carries exactly one upper bound on its one bounded level: the
        # bound becomes the span of a rank-bounded gather taken straight
        # from its column — no reduce over one column, no compare after
        source = emit_plan_source(build_plan(PATTERNS["TT"]))
        assert "lo, hi = spans(src, upper=emb[:, 1])" in source
        assert source.count("gather_rows(graph, src, lo, hi)") == 1
        assert source.count("gather_rows(graph, src)") == 2  # unbounded
        assert ".min(axis=1)" not in source
        assert "cand <" not in source and "cand >" not in source

    def test_multi_bound_fuses_to_constant_column_reduce(self):
        # 3CF level 2 is bounded by both u0 and u1 — the columns appear
        # as a pattern-constant tuple inside the span search
        source = emit_plan_source(build_plan(PATTERNS["3CF"]))
        assert "spans(src, upper=emb[:, 0])" in source  # level 1
        assert "spans(src, upper=emb[:, (0, 1)].min(axis=1))" in source
        # one bounded gather per bounded level, nothing filtered afterwards
        assert source.count("gather_rows(graph, src, lo, hi)") == 2
        assert "gather_rows(graph, src)" not in source
        assert "cand <" not in source

    def test_parent_set_reuse_only_where_exact(self):
        # 4CF level 3 extends S2 by one probe and one bound: its candidates
        # come from level 2's survivors, its first probe is only charged
        source = emit_plan_source(build_plan(PATTERNS["4CF"]))
        level3 = source[source.index("# -- level 3:"):]
        assert "# parent-set reuse: S2 below u2" in level3
        assert "gather_spans(cand, first, np.arange(n_rows))" in level3
        assert "gather_rows" not in level3
        assert "comparisons += int((hi - lo).sum()) + other_words" in level3
        assert level3.count("adjacent(") == 1  # only u2 is probed
        assert source.count("parent-set reuse") == 1
        # 5CF: level 3 reuses, level 4's parent issued two probes of its own
        five = emit_plan_source(build_plan(PATTERNS["5CF"]))
        assert five.count("parent-set reuse") == 1
        assert "gather_rows" in five[five.index("# -- level 4:"):]
        # no clique chain, a distinctness filter, or a parent without a
        # probe: every other plan takes the bounded gather
        for name in ("3CF", "DIA", "TT", "CYC", "HOUSE", "WEDGE"):
            assert "reuse" not in emit_plan_source(build_plan(PATTERNS[name]))
        # a label predicate of its own also rules reuse out
        assert "reuse" not in emit_plan_source(
            build_plan(PATTERNS["4CF"].with_labels((0, 0, 0, 0))),
            use_labels=True,
        )

    def test_level_loop_is_unrolled(self):
        plan = build_plan(PATTERNS["4CF"])
        source = emit_plan_source(plan)
        for level in range(1, plan.stop_level + 1):
            assert f"# -- level {level}:" in source
        assert "for level" not in source  # nothing interpreted at runtime

    def test_labels_only_emitted_when_requested(self):
        plan = build_plan(PATTERNS["3CF"])
        assert "labels" not in emit_plan_source(plan, use_labels=False)

    def test_source_is_valid_python(self):
        for name in ALL:
            compile(emit_plan_source(build_plan(PATTERNS[name])),
                    "<test>", "exec")
