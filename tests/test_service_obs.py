"""Service-level observability: the PR's end-to-end acceptance tests.

The headline property: one query submitted through a traced
:class:`QueryService` exports a Chrome trace whose spans nest
service → worker → engine → simulator and include PE activity events —
and the *same* query with observability disabled returns byte-identical
counts with no spans recorded anywhere.
"""

import json
import threading

import pytest

from repro.core.api import XSetAccelerator
from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi
from repro.obs import observe
from repro.obs.export import PE_PID, SPAN_PID
from repro.patterns.pattern import PATTERNS
from repro.service import QueryService
from repro.service.stats import LatencyRecorder, ServiceStats

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(50, 7.0, seed=13, name="obs-er50")


def _span_events(events):
    return [e for e in events if e.get("cat") == "span"]


class TestEndToEnd:
    def test_traced_query_exports_nested_trace(self, graph, tmp_path):
        with QueryService(mode="inline", observability=True) as svc:
            gid = svc.register_graph(graph)
            report = svc.count(gid, PATTERNS["3CF"], engine="event")
            path = tmp_path / "trace.json"
            svc.export_trace(path)
            profiles = svc.profiles()
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        spans = _span_events(events)
        names = {e["name"] for e in spans}
        # every layer shows up in one file
        assert {"service.job", "worker.run_job", "engine.event",
                "sim.accelerator"} <= names
        # the span tree actually nests: each layer fits inside its parent
        by_name = {e["name"]: e for e in spans}
        job = by_name["service.job"]
        for child in ("worker.run_job", "engine.event", "sim.accelerator"):
            ev = by_name[child]
            assert ev["ts"] >= job["ts"] - 1e-3
            assert ev["ts"] + ev["dur"] <= job["ts"] + job["dur"] + 1e-3
        # spans share one lane (one job); PE activity is its own process
        assert all(e["pid"] == SPAN_PID for e in spans)
        pe = [e for e in events if e.get("cat") == "pe"]
        assert pe and all(e["pid"] == PE_PID for e in pe)
        # the attached profile carries the per-level accounting
        assert len(profiles) == 1
        prof = profiles[0]
        assert prof.engine == "event"
        assert prof.levels and all(
            prof.level_tasks[lv] > 0 for lv in prof.levels
        )
        assert report.embeddings > 0

    def test_disabled_is_byte_identical_and_silent(self, graph, tmp_path):
        with QueryService(mode="inline", observability=True) as svc:
            gid = svc.register_graph(graph)
            traced = svc.count(gid, PATTERNS["3CF"], engine="event")
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            plain = svc.count(gid, PATTERNS["3CF"], engine="event")
            assert not svc.observability
            assert svc.profiles() == []
            with pytest.raises(ServiceError):
                svc.export_trace()
            with pytest.raises(ServiceError):
                svc.export_trace(str(tmp_path / "trace.json"))
        assert not (tmp_path / "trace.json").exists()
        assert plain.embeddings == traced.embeddings
        assert plain.cycles == traced.cycles
        assert plain.tasks == traced.tasks
        assert plain.profile is None
        assert traced.profile is not None
        # the frontier engines' level hooks are as inert as the simulator's
        accel = XSetAccelerator(engine="codegen")
        plain = accel.count(graph, PATTERNS["4CF"])
        with observe() as ob:
            traced = accel.count(graph, PATTERNS["4CF"])
        assert ob.tracer.finished()
        assert (plain.embeddings, plain.cycles, plain.tasks) == (
            traced.embeddings, traced.cycles, traced.tasks
        )

    def test_codegen_engine_levels_match_event_engine(self, graph):
        def levels_for(engine):
            with QueryService(mode="inline", observability=True) as svc:
                gid = svc.register_graph(graph)
                svc.count(gid, PATTERNS["3CF"], engine=engine)
                return svc.profiles()[0].level_tasks

        assert levels_for("codegen") == levels_for("event")

    def test_process_mode_traces_too(self, graph, tmp_path):
        with QueryService(
            mode="process", max_workers=1, observability=True
        ) as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["WEDGE"], engine="codegen")
            events = svc.export_trace()
        names = {e["name"] for e in _span_events(events)}
        assert {"service.job", "worker.run_job", "engine.codegen"} <= names


class TestServiceMetrics:
    def test_counters_and_cache_metrics(self, graph):
        with QueryService(mode="inline", observability=True) as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"])
            svc.count(gid, PATTERNS["3CF"])  # served from cache
            stats = svc.stats()
            text = svc.metrics_text()
        assert stats.metrics["repro_jobs_submitted_total"] == 2.0
        assert stats.metrics["repro_jobs_completed_total"] == 1.0
        assert stats.metrics["repro_cache_hits_total"] == 1.0
        assert stats.metrics["repro_cache_misses_total"] == 1.0
        assert "repro_jobs_submitted_total 2" in text
        assert "# TYPE repro_job_latency_seconds histogram" in text

    def test_metrics_exist_without_observability(self, graph):
        # metrics are always-on; only spans/profiles are opt-in
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["WEDGE"])
            stats = svc.stats()
        assert stats.metrics["repro_jobs_submitted_total"] == 1.0

    def test_cache_hit_span_is_marked(self, graph):
        with QueryService(mode="inline", observability=True) as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"])
            svc.count(gid, PATTERNS["3CF"])
            spans = svc._observation.tracer.finished()
        hits = [
            sp for sp in spans
            if sp.name == "service.job" and sp.attrs.get("cache_hit")
        ]
        assert len(hits) == 1
        assert hits[0].attrs["outcome"] == "done"


class TestLatencyRecorder:
    def test_window_eviction(self):
        rec = LatencyRecorder(window=3)
        for v in (10.0, 1.0, 2.0, 3.0):  # the 10.0 outlier is evicted
            rec.record("event", v)
        summary = rec.summary()["event"]
        assert summary["count"] == 3.0
        assert summary["p99"] == 3.0

    def test_engines_are_independent(self):
        rec = LatencyRecorder()
        rec.record("event", 1.0)
        rec.record("codegen", 2.0)
        summary = rec.summary()
        assert summary["event"]["p50"] == 1.0
        assert summary["codegen"]["p50"] == 2.0

    def test_feeds_registry_histogram(self):
        rec = LatencyRecorder()
        rec.record("event", 0.1)
        snap = rec.registry.snapshot()
        assert snap['repro_job_latency_seconds_count{engine="event"}'] == 1.0

    def test_concurrent_records(self):
        rec = LatencyRecorder(window=128)

        def pump(engine):
            for _ in range(500):
                rec.record(engine, 0.001)

        threads = [
            threading.Thread(target=pump, args=(e,))
            for e in ("event", "codegen") for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        summary = rec.summary()
        assert summary["event"]["count"] == 128.0  # window-bounded
        assert summary["codegen"]["count"] == 128.0


class TestSnapshotImmutability:
    def test_stats_snapshot_is_frozen(self, graph):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["WEDGE"])
            stats = svc.stats()
        with pytest.raises(AttributeError):
            stats.submitted = 99

    def test_snapshot_stable_under_concurrent_record(self):
        """A taken snapshot must not change while recording continues."""
        rec = LatencyRecorder(window=64)
        rec.record("event", 1.0)
        stats = ServiceStats(
            mode="inline", workers=1, graphs=1, queue_depth=0, in_flight=0,
            submitted=1, completed=1, failed=0, cancelled=0, timed_out=0,
            retries=0, cache_size=0, cache_hits=0, cache_misses=1,
            cache_evictions=0, cache_invalidations=0, cache_hit_rate=0.0,
            latency=rec.summary(),
        )
        before = json.dumps(stats.latency, sort_keys=True)
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                rec.record("event", 2.0)

        t = threading.Thread(target=pump)
        t.start()
        try:
            for _ in range(50):
                assert json.dumps(stats.latency, sort_keys=True) == before
        finally:
            stop.set()
            t.join()
        # new snapshots do see the new samples
        assert rec.summary()["event"]["count"] > 1.0
