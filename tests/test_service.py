"""Query-service tests: equivalence, caching, registry, dispatch order, stats.

The acceptance property lives here: for every registered pattern on two
generated graphs, the service returns counts identical to direct
``XSetAccelerator.count`` under both the inline and the process-pool
executors, and repeats are served from the result cache.
"""

from __future__ import annotations

import pytest

from repro.core.api import XSetAccelerator
from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi
from repro.patterns.pattern import PATTERNS, Pattern
from repro.service import (
    GraphRegistry,
    InlineExecutor,
    QueryService,
    pattern_cache_key,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def service_graphs():
    return [
        erdos_renyi(30, 8.0, seed=11, name="svc-er30"),
        erdos_renyi(40, 6.0, seed=7, name="svc-er40"),
    ]


@pytest.fixture(scope="module")
def direct_counts(service_graphs):
    """Ground truth from the plain, single-process accelerator path."""
    accel = XSetAccelerator(engine="codegen")
    return {
        (g.name, name): accel.count(g, pattern).embeddings
        for g in service_graphs
        for name, pattern in PATTERNS.items()
    }


class TestEquivalence:
    def test_inline_counts_match_direct(self, service_graphs, direct_counts):
        with QueryService(mode="inline") as svc:
            for graph in service_graphs:
                gid = svc.register_graph(graph)
                for name, pattern in PATTERNS.items():
                    report = svc.count(gid, pattern, engine="codegen")
                    assert report.embeddings == \
                        direct_counts[(graph.name, name)], (graph.name, name)

    def test_process_pool_counts_match_direct(self, service_graphs,
                                              direct_counts):
        with QueryService(mode="process", max_workers=2) as svc:
            handles = []
            for graph in service_graphs:
                gid = svc.register_graph(graph)
                handles += [
                    (graph.name, name,
                     svc.submit(gid, pattern, engine="codegen"))
                    for name, pattern in PATTERNS.items()
                ]
            for graph_name, name, handle in handles:
                report = handle.result(timeout=300)
                assert report.embeddings == \
                    direct_counts[(graph_name, name)], (graph_name, name)

    def test_event_engine_through_service(self, service_graphs):
        graph = service_graphs[0]
        expected = XSetAccelerator().count(graph, PATTERNS["3CF"])
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            report = svc.count(gid, PATTERNS["3CF"], engine="event")
        assert report.embeddings == expected.embeddings
        assert report.cycles == expected.cycles


class TestResultCache:
    def test_repeat_query_hits_cache(self, service_graphs):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            first = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
            r1 = first.result()
            second = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
            r2 = second.result()
            assert not first.from_cache and second.from_cache
            assert r2 is r1  # the very same report object is returned
            stats = svc.stats()
            assert stats.cache_hits == 1
            assert stats.cache_hit_rate > 0

    def test_isomorphic_pattern_hits_same_entry(self, service_graphs):
        # a hand-numbered triangle is cache-equal to PATTERNS["3CF"]
        other = Pattern.from_edges("my-triangle", [(0, 2), (2, 1), (1, 0)])
        assert pattern_cache_key(other, None) == \
            pattern_cache_key(PATTERNS["3CF"], None)
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            svc.count(gid, PATTERNS["3CF"], engine="codegen")
            handle = svc.submit(gid, other, engine="codegen")
            assert handle.result() and handle.from_cache

    def test_induced_default_resolves_before_keying(self, service_graphs):
        # WEDGE is in DEFAULT_INDUCED: induced=None runs an *induced* plan,
        # so it must share a key with induced=True, never induced=False
        wedge = PATTERNS["WEDGE"]
        assert pattern_cache_key(wedge, None) == \
            pattern_cache_key(wedge, True)
        assert pattern_cache_key(wedge, None) != \
            pattern_cache_key(wedge, False)
        # an isomorphic pattern whose *name* is outside DEFAULT_INDUCED
        # resolves None differently — the keys must diverge accordingly
        other = Pattern.from_edges("my-wedge", [(0, 1), (0, 2)])
        assert pattern_cache_key(other, None) != \
            pattern_cache_key(wedge, None)
        assert pattern_cache_key(other, True) == \
            pattern_cache_key(wedge, None)
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            default = svc.submit(gid, wedge, engine="codegen")
            r_default = default.result()
            noninduced = svc.submit(
                gid, wedge, engine="codegen", induced=False
            )
            assert not noninduced.from_cache  # distinct plan, distinct entry
            assert noninduced.result().embeddings != r_default.embeddings
            explicit = svc.submit(gid, wedge, engine="codegen", induced=True)
            assert explicit.from_cache
            assert explicit.result().embeddings == r_default.embeddings

    def test_engine_and_config_separate_entries(self, service_graphs):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            a = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
            a.result()
            b = svc.submit(gid, PATTERNS["3CF"], engine="event")
            b.result()
            assert not b.from_cache  # different engine → different key

    def test_use_cache_false_bypasses(self, service_graphs):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            svc.count(gid, PATTERNS["3CF"], engine="codegen")
            handle = svc.submit(
                gid, PATTERNS["3CF"], engine="codegen", use_cache=False
            )
            handle.result()
            assert not handle.from_cache

    def test_lru_eviction(self, service_graphs):
        with QueryService(mode="inline", cache_capacity=2) as svc:
            gid = svc.register_graph(service_graphs[0])
            for name in ("3CF", "WEDGE", "P3"):
                svc.count(gid, PATTERNS[name], engine="codegen")
            stats = svc.stats()
            assert stats.cache_size == 2
            assert stats.cache_evictions == 1


class TestRegistry:
    def test_reregister_same_graph_is_noop(self, service_graphs):
        registry = GraphRegistry()
        gid = registry.register(service_graphs[0])
        assert registry.register(service_graphs[0]) == gid
        assert len(registry) == 1

    def test_conflicting_register_raises(self, service_graphs):
        registry = GraphRegistry()
        registry.register(service_graphs[0], graph_id="g")
        with pytest.raises(ServiceError, match="already registered"):
            registry.register(service_graphs[1], graph_id="g")

    def test_unknown_graph_id(self):
        with QueryService(mode="inline") as svc:
            with pytest.raises(ServiceError, match="unknown graph id"):
                svc.submit("nope", PATTERNS["3CF"])

    def test_update_changes_fingerprint(self, service_graphs):
        registry = GraphRegistry()
        gid = registry.register(service_graphs[0], graph_id="g")
        old_fp, new_fp = registry.update("g", service_graphs[1])
        assert old_fp != new_fp
        assert registry.get(gid).fingerprint == new_fp


class RecordingExecutor(InlineExecutor):
    """Inline executor that logs the pattern name of each dispatched job."""

    def __init__(self):
        self.dispatched: list[str] = []

    def submit(self, fn, /, *args, **kwargs):
        plan = args[3]
        self.dispatched.append(plan.pattern.name)
        return super().submit(fn, *args, **kwargs)


class TestDispatchOrder:
    def test_cost_order_changes_no_count(self, service_graphs, direct_counts):
        executor = RecordingExecutor()
        names = ("TT", "3CF", "WEDGE", "P3")
        with QueryService(
            mode="inline", start_paused=True, executor=executor,
        ) as svc:
            gid = svc.register_graph(service_graphs[0])
            # each shape runs once first: a shape that has not run is
            # priced inf, and unpriced jobs would queue in submit order
            svc.resume()
            for name in names:
                svc.count(gid, PATTERNS[name], engine="codegen",
                          use_cache=False)
            svc.pause()
            executor.dispatched.clear()
            handles = [
                svc.submit(gid, PATTERNS[name], engine="codegen",
                           use_cache=False)
                for name in names
            ]
            # the queue ranks by measured cost alone
            by_cost = [
                job.handle.pattern_name for _, _, job in svc._core.queue._entries
            ]
            svc.resume()
            counts = [h.result(timeout=60).embeddings for h in handles]
        assert by_cost != list(names)  # the order is not submit order
        assert executor.dispatched == by_cost
        # the rule orders dispatch, never what is counted
        assert counts == [direct_counts[(gid, name)] for name in names]


class TestStatsAndLifecycle:
    def test_stats_fields(self, service_graphs):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(service_graphs[0])
            svc.count(gid, PATTERNS["3CF"], engine="codegen")
            stats = svc.stats()
        assert stats.mode == "inline"
        assert stats.graphs == 1
        assert stats.submitted == 1 and stats.completed == 1
        assert stats.failed == 0 and stats.in_flight == 0
        assert "codegen" in stats.latency
        assert stats.latency["codegen"]["count"] == 1
        for pct in ("p50", "p90", "p99"):
            assert stats.latency["codegen"][pct] >= 0
        text = stats.summary()
        assert "cache" in text and "hit rate" in text

    def test_submit_after_shutdown_raises(self, service_graphs):
        svc = QueryService(mode="inline")
        gid = svc.register_graph(service_graphs[0])
        svc.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(gid, PATTERNS["3CF"])

    def test_bad_mode_rejected(self):
        for mode in ("gpu", "thread"):
            with pytest.raises(
                ServiceError,
                match=f"unknown service mode '{mode}'; "
                "available: process, inline",
            ):
                QueryService(mode=mode)


class TestCountManyAPI:
    def test_parallel_count_many_matches_sequential(self, service_graphs,
                                                    direct_counts):
        graph = service_graphs[1]
        accel = XSetAccelerator(engine="codegen")
        patterns = [PATTERNS[n] for n in ("3CF", "WEDGE", "TT", "DIA")]
        reports = accel.count_many(graph, patterns, parallel=True)
        for pattern in patterns:
            assert reports[pattern.name].embeddings == \
                direct_counts[(graph.name, pattern.name)]
