"""Configuration presets and simulation-report accounting."""

import pytest

from repro.core import (
    fingers_config,
    flexminer_config,
    shogun_config,
    xset_default,
)
from repro.sim.report import SimReport


class TestPresets:
    def test_xset_matches_table2(self):
        cfg = xset_default()
        assert (cfg.num_pes, cfg.sius_per_pe) == (16, 4)
        assert cfg.siu_kind == "order-aware"
        assert cfg.scheduler == "barrier-free"
        assert cfg.bitmap_width == 8
        assert cfg.task_overhead_cycles == 0

    def test_flexminer_as_published(self):
        cfg = flexminer_config()
        assert cfg.num_pes == 40
        assert cfg.sius_per_pe == 1
        assert cfg.siu_kind == "merge"
        assert cfg.scheduler == "dfs"
        # 4-channel DDR4-2666 ≈ 85 GB/s
        assert cfg.dram.peak_bandwidth_gbps == pytest.approx(85.2, abs=0.5)

    def test_fingers_as_published(self):
        cfg = fingers_config()
        assert cfg.num_pes == 20
        assert cfg.scheduler == "pseudo-dfs"
        assert cfg.scheduler_params["window"] == 8

    def test_shogun_as_published(self):
        cfg = shogun_config()
        assert cfg.num_pes == 20
        assert cfg.scheduler == "shogun"

    def test_baselines_have_task_overhead(self):
        for factory in (flexminer_config, fingers_config, shogun_config):
            assert factory().task_overhead_cycles > 0

    def test_scheduler_kwargs_dfs_lanes(self):
        cfg = xset_default(scheduler="dfs")
        assert cfg.scheduler_kwargs()["lanes"] == cfg.sius_per_pe

    def test_scheduler_kwargs_barrier_free_capacity(self):
        kwargs = xset_default().scheduler_kwargs()
        assert kwargs["num_task_sets"] == 96
        assert kwargs["task_set_width"] == 4

    def test_explicit_params_win(self):
        cfg = xset_default(
            scheduler="dfs", scheduler_params={"lanes": 2}
        )
        assert cfg.scheduler_kwargs()["lanes"] == 2

    def test_with_overrides_is_pure(self):
        base = xset_default()
        derived = base.with_overrides(num_pes=2)
        assert base.num_pes == 16 and derived.num_pes == 2

    def test_memory_config_propagates(self):
        cfg = xset_default(private_kb=64, shared_mb=2.0, num_pes=4)
        mem = cfg.memory_config()
        assert mem.private_kb == 64
        assert mem.shared_mb == 2.0
        assert mem.num_pes == 4


class TestSimReport:
    def test_seconds_includes_host(self):
        r = SimReport(cycles=1e6, host_cycles=1e6, frequency_ghz=1.0)
        assert r.seconds == pytest.approx(2e-3)

    def test_frequency_scales_seconds(self):
        slow = SimReport(cycles=1e6, frequency_ghz=0.5)
        fast = SimReport(cycles=1e6, frequency_ghz=2.0)
        assert slow.seconds == 4 * fast.seconds

    def test_utilization_zero_cases(self):
        assert SimReport().siu_utilization == 0.0
        assert SimReport(cycles=100, num_sius=0).siu_utilization == 0.0

    def test_utilization(self):
        r = SimReport(cycles=100.0, siu_busy_cycles=150.0, num_sius=2)
        assert r.siu_utilization == pytest.approx(0.75)

    def test_dram_bandwidth(self):
        r = SimReport(cycles=1000.0, dram_bytes=64_000, frequency_ghz=1.0)
        assert r.dram_bandwidth_gbps == pytest.approx(64.0)

    def test_bandwidth_empty_run(self):
        assert SimReport().dram_bandwidth_gbps == 0.0


class TestRootPartitioning:
    def test_invalid_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            xset_default(root_partition="random")

    def test_same_counts_both_modes(self):
        from repro.graph import powerlaw_graph
        from repro.patterns import PATTERNS, build_plan
        from repro.sim import run_on_soc

        g = powerlaw_graph(150, 6.0, 50, seed=3, name="rp")
        plan = build_plan(PATTERNS["3CF"])
        rr = run_on_soc(g, plan, xset_default())
        db = run_on_soc(
            g, plan,
            xset_default(root_partition="degree-balanced", name="db"),
        )
        assert rr.embeddings == db.embeddings

    def test_degree_balanced_spreads_hubs(self):
        from repro.graph import powerlaw_graph
        from repro.patterns import PATTERNS, build_plan
        from repro.sim import AcceleratorSim

        g = powerlaw_graph(200, 6.0, 80, seed=4, name="rp2"
                           ).relabeled_by_degree()
        plan = build_plan(PATTERNS["3CF"])
        sim = AcceleratorSim(
            g, plan,
            xset_default(num_pes=4, root_partition="degree-balanced",
                         name="db4"),
        )
        sim._distribute_roots(None)
        loads = [
            sum(
                g.degree(t.vertex)
                for ts in sched._levels[1]
                for t in ts.pending
            )
            for sched in sim.schedulers
        ]
        assert max(loads) <= 1.5 * (sum(loads) / len(loads)) + 100


class TestEngineValidation:
    """`SystemConfig.engine` is validated eagerly, not deep inside a run."""

    def test_constructor_rejects_unknown_engine(self):
        from repro.core import SystemConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as err:
            SystemConfig(engine="nope")
        # the error names every registered backend
        from repro.engine import available_engines

        for name in available_engines():
            assert name in str(err.value)

    def test_with_overrides_rejects_unknown_engine(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown execution engine"):
            xset_default().with_overrides(engine="nope")

    def test_valid_engines_accepted(self):
        from repro.engine import available_engines

        for name in available_engines():
            assert xset_default().with_overrides(engine=name).engine == name


class TestCacheKey:
    def test_hashable_and_stable(self):
        key = xset_default().cache_key()
        assert hash(key) == hash(xset_default().cache_key())

    def test_any_knob_changes_key(self):
        base = xset_default()
        for override in (
            {"engine": "batched"},
            {"num_pes": 8},
            {"scheduler_params": {"window": 4}},
            {"shared_mb": 2.0},
        ):
            assert base.with_overrides(**override).cache_key() != \
                base.cache_key(), override

    def test_memoised_per_instance_and_never_pickled(self):
        import pickle

        base = xset_default()
        cold = pickle.dumps(base)
        key = base.cache_key()
        assert base.cache_key() is key  # derived once
        assert pickle.dumps(base) == cold  # not shipped to pool workers
        # a copy derives its own: same fields, equal key; new field, new key
        assert base.with_overrides().cache_key() is not key
        assert base.with_overrides().cache_key() == key
        assert base.with_overrides(num_pes=8).cache_key() != key
        assert pickle.loads(cold) == base
