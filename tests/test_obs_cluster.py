"""Cluster-wide observability: trace propagation, federation, flight.

One distributed query must yield one coherent story: the coordinator's
scatter spans, every shard's service → engine → simulator subtree
(re-anchored to coordinator time), a federated Prometheus registry
labelled by shard, and a flight-recorder ring that dumps itself when
chaos strikes.
"""

import json

import pytest

from repro.cluster import LocalCluster
from repro.core.config import xset_default
from repro.errors import ClusterError
from repro.graph import erdos_renyi
from repro.obs import (
    AGGREGATE_SHARD,
    FederatedMetrics,
    FlightRecorder,
    MetricsDeltaTracker,
    MetricsRegistry,
    TraceContext,
    Tracer,
    collect_job_spans,
    new_trace_id,
)
from repro.obs.flight import FLIGHT_DIR_ENV
from repro.patterns import PATTERNS, build_plan
from repro.resilience import HealthState
from repro.sim.host import run_on_soc


def demo_graph(n=60, deg=6.0, seed=11):
    return erdos_renyi(n, deg, seed=seed, name=f"obsdemo{n}")


# -- trace context ----------------------------------------------------------


class TestTraceContext:
    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(int(t, 16) >= 0 for t in ids)

    def test_skew_measures_distance_from_anchor(self):
        ctx = TraceContext(trace_id="t", parent_span_id=7, anchor=100.0)
        assert ctx.skew(now=100.5) == pytest.approx(0.5)

    def test_frozen(self):
        ctx = TraceContext(trace_id="t")
        with pytest.raises(AttributeError):
            ctx.trace_id = "other"


class TestCollectJobSpans:
    def test_selects_one_jobs_tree(self):
        tracer = Tracer()
        with tracer.span("service.job", job_id=1):
            with tracer.span("worker.run_job"):
                with tracer.span("engine.event"):
                    pass
        with tracer.span("service.job", job_id=2):
            with tracer.span("worker.run_job"):
                pass
        with tracer.span("unrelated"):
            pass
        spans = collect_job_spans(tracer.finished(), 1)
        assert sorted(sp.name for sp in spans) == [
            "engine.event", "service.job", "worker.run_job"
        ]
        root = [sp for sp in spans if sp.name == "service.job"]
        assert len(root) == 1 and root[0].attrs["job_id"] == 1

    def test_missing_job_is_empty(self):
        tracer = Tracer()
        with tracer.span("service.job", job_id=1):
            pass
        assert collect_job_spans(tracer.finished(), 99) == []


# -- flight recorder --------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder("t", capacity=4)
        for i in range(10):
            rec.record("tick", i=i)
        assert len(rec) == 4
        assert [e.data["i"] for e in rec] == [6, 7, 8, 9]

    def test_counts_and_kind_filter(self):
        rec = FlightRecorder("t")
        rec.record("submit", job_id=1)
        rec.record("submit", job_id=2)
        rec.record("done", job_id=1)
        assert rec.counts() == {"done": 1, "submit": 2}
        assert [e.data["job_id"] for e in rec.events("submit")] == [1, 2]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder("t", capacity=0)

    def test_manual_dump(self, tmp_path):
        rec = FlightRecorder("svc", flight_dir=tmp_path)
        rec.record("submit", job_id=1)
        path = rec.dump(reason="test")
        assert path == tmp_path / "flight-svc.json"
        payload = json.loads(path.read_text())
        assert payload["recorder"] == "svc"
        assert payload["reason"] == "test"
        assert payload["events"][0]["kind"] == "submit"
        assert rec.dumps == [path]

    def test_auto_dump_requires_dir_and_dedupes(self, tmp_path):
        rec = FlightRecorder("svc")
        rec.record("boom")
        assert rec.auto_dump("crash") is None  # no dir configured

        rec = FlightRecorder("svc", flight_dir=tmp_path)
        rec.record("boom")
        first = rec.auto_dump("crash!")
        assert first is not None and first.exists()
        assert first.name == "flight-svc-crash-.json"  # sanitized
        assert rec.auto_dump("crash!") is None  # deduped per reason
        rec.clear()
        assert rec.auto_dump("crash!") is not None  # clear resets dedup

    def test_env_var_configures_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        rec = FlightRecorder("svc")
        assert rec.flight_dir == tmp_path
        assert rec.auto_dump("env") is not None


# -- metrics federation -----------------------------------------------------


class TestMetricsDelta:
    def test_counter_deltas(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        reg.counter("jobs", "jobs").inc(3)
        snap = tracker.collect()
        assert dict(
            (name, value) for name, _, value in snap.counters
        ) == {"jobs": 3.0}
        reg.counter("jobs", "jobs").inc(2)
        snap = tracker.collect()
        assert snap.counters[0][2] == 2.0  # delta, not absolute

    def test_unchanged_registry_is_empty_snapshot(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        reg.gauge("depth", "queue depth").set(4)
        assert not tracker.collect().empty
        assert tracker.collect().empty

    def test_gauges_ship_absolutes(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        reg.gauge("depth", "d").set(4)
        tracker.collect()
        reg.gauge("depth", "d").set(2)
        snap = tracker.collect()
        assert snap.gauges[0][2] == 2.0

    def test_histogram_deltas(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        hist = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        name, labels, bounds, counts, sum_, count = (
            tracker.collect().histograms[0]
        )
        assert bounds == (0.1, 1.0)
        assert counts == (1, 0, 1)  # non-cumulative slots incl. +Inf
        assert count == 2
        hist.observe(0.5)
        _, _, _, counts, _, count = tracker.collect().histograms[0]
        assert counts == (0, 1, 0) and count == 1


class TestFederatedMetrics:
    def test_shard_label_and_aggregate(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        reg.counter("jobs", "jobs").inc(3)
        fed = FederatedMetrics()
        fed.apply("shard0", tracker.collect())
        reg.counter("jobs", "jobs").inc(4)
        fed.apply("shard1", tracker.collect())
        snap = fed.snapshot()
        assert snap['jobs{shard="shard0"}'] == 3.0
        assert snap['jobs{shard="shard1"}'] == 4.0

    def test_histogram_aggregate_sums(self):
        fed = FederatedMetrics()
        for shard, values in (
            ("shard0", (0.05, 0.5)), ("shard1", (0.05, 5.0))
        ):
            reg = MetricsRegistry()
            tracker = MetricsDeltaTracker(reg)
            hist = reg.histogram("lat", "l", buckets=(0.1, 1.0))
            for v in values:
                hist.observe(v)
            fed.apply(shard, tracker.collect())
        per_shard = [
            fed.registry.histogram("lat", buckets=(0.1, 1.0), shard=s)
            for s in ("shard0", "shard1")
        ]
        agg = fed.registry.histogram(
            "lat", buckets=(0.1, 1.0), shard=AGGREGATE_SHARD
        )
        for slot in range(3):
            assert agg.raw_counts()[slot] == sum(
                h.raw_counts()[slot] for h in per_shard
            )

    def test_apply_without_aggregate(self):
        reg = MetricsRegistry()
        tracker = MetricsDeltaTracker(reg)
        reg.histogram("lat", "l", buckets=(1.0,)).observe(0.5)
        fed = FederatedMetrics()
        fed.apply("coordinator", tracker.collect(), aggregate=False)
        assert AGGREGATE_SHARD not in fed.render()

    def test_none_snapshot_is_noop(self):
        fed = FederatedMetrics()
        fed.apply("shard0", None)
        assert len(fed.registry) == 0


# -- the merged cluster trace -----------------------------------------------


def _span_index(coord):
    spans = coord._tracer.finished()
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    return spans, by_name


class TestClusterTracing:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_one_trace_covers_every_shard(self, shards):
        graph = demo_graph()
        with LocalCluster(
            num_shards=shards, observability=True, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            report = coord.query(gid, PATTERNS["3CF"], use_cache=False)
            trace_id = report.notes["cluster"]["trace_id"]
            _, by_name = _span_index(coord)

        assert len(by_name["cluster.query"]) == 1
        qspan = by_name["cluster.query"][0]
        assert qspan.attrs["trace_id"] == trace_id

        # span coverage scales with the shard count, one subtree each
        shard_names = {f"shard{i}" for i in range(shards)}
        for name in ("cluster.scatter", "service.job", "worker.run_job"):
            group = by_name[name]
            assert len(group) == shards, name
            assert {sp.attrs["shard"] for sp in group} == shard_names

        # every scatter span hangs off the query root and carries the id
        scatter = {
            sp.attrs["shard"]: sp for sp in by_name["cluster.scatter"]
        }
        for sspan in scatter.values():
            assert sspan.parent_id == qspan.span_id
            assert sspan.attrs["trace_id"] == trace_id
            assert sspan.attrs["outcome"] == "ok"

        # each shard's job root was re-parented under its scatter span
        # and re-anchored to coordinator time inside it
        for jspan in by_name["service.job"]:
            sspan = scatter[jspan.attrs["shard"]]
            assert jspan.parent_id == sspan.span_id
            assert jspan.start >= sspan.start - 1e-9
            assert jspan.end <= sspan.end + 1e-9
            assert jspan.attrs["trace_id"] == trace_id
            assert jspan.attrs["lane"] == jspan.attrs["shard"]
            assert "clock_skew_s" in jspan.attrs

    def test_counts_identical_traced_and_untraced(self):
        graph = demo_graph(80, 8.0)
        pattern = PATTERNS["TT"]
        reference = run_on_soc(
            graph, build_plan(pattern), xset_default()
        ).embeddings
        results = {}
        for obs in (False, True):
            with LocalCluster(
                num_shards=3, observability=obs, max_workers=1
            ) as cluster:
                gid = cluster.coordinator.register_graph(graph)
                report = cluster.coordinator.query(
                    gid, pattern, use_cache=False
                )
                results[obs] = (report.embeddings, report.cycles)
        # observability never changes what was computed, and the merged
        # count matches the single-node reference either way
        assert results[False] == results[True]
        assert results[False][0] == reference

    def test_trace_events_namespace_lanes_by_shard(self, tmp_path):
        graph = demo_graph()
        with LocalCluster(
            num_shards=3, observability=True, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            events = coord.trace_events()
            out = tmp_path / "cluster-trace.json"
            coord.export_trace(out)

        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"coordinator", "shard0", "shard1", "shard2"} <= lane_names

        # each shard's PE timeline gets its own pid (no collisions)
        pe_procs = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and "accelerator" in e["args"]["name"]
        }
        assert len(set(pe_procs.values())) == len(pe_procs) == 3
        assert all("shard" in name for name in pe_procs)

        payload = json.loads(out.read_text())
        assert payload["traceEvents"]  # the exported file is loadable

    def test_trace_requires_observability(self):
        with LocalCluster(num_shards=2, max_workers=1) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            report = coord.query(gid, PATTERNS["3CF"], use_cache=False)
            assert "trace_id" not in report.notes["cluster"]
            with pytest.raises(ClusterError):
                coord.trace_events()

    def test_tcp_transport_ships_spans(self):
        graph = demo_graph()
        with LocalCluster(
            num_shards=2, observability=True, transport="tcp",
            max_workers=1,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            _, by_name = _span_index(coord)
        # spans survived pickling over real sockets
        assert len(by_name["service.job"]) == 2


class TestFederationOverCluster:
    def test_metrics_text_labels_every_series(self):
        graph = demo_graph()
        with LocalCluster(
            num_shards=3, observability=True, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            for name in ("3CF", "TT"):
                coord.query(gid, PATTERNS[name], use_cache=False)
            text = coord.metrics_text()

        samples = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert samples
        assert all('shard="' in line for line in samples)

        # federated latency buckets: shard="all" equals the shard sums
        def buckets(shard):
            out = {}
            for line in samples:
                if (
                    line.startswith("repro_job_latency_seconds_bucket")
                    and f'shard="{shard}"' in line
                ):
                    series, value = line.rsplit(" ", 1)
                    le = series.split('le="')[1].split('"')[0]
                    out[le] = out.get(le, 0.0) + float(value)
            return out

        agg = buckets("all")
        assert agg  # the aggregate series exists
        for le, value in agg.items():
            assert value == sum(
                buckets(f"shard{i}").get(le, 0.0) for i in range(3)
            ), le

    def test_health_federates_and_reports_state(self):
        with LocalCluster(
            num_shards=2, observability=True, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            health = coord.health()
            assert health.state is HealthState.HEALTHY
            d = health.to_dict()
            assert d["state"] == "healthy"
            # every shard's metric deltas land under its own label
            text = coord.federation.render()
            for shard in ("shard0", "shard1"):
                assert f'shard="{shard}"' in text, shard


class TestClusterFlight:
    def test_kill_produces_black_box_dump(self, tmp_path):
        graph = demo_graph()
        with LocalCluster(
            num_shards=3, observability=True, max_workers=1,
            flight_dir=tmp_path,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            killed = cluster.kill_shard(1)
            # two partial queries: the second trips shard1's breaker
            for name in ("TT", "DIA"):
                report = coord.query(gid, PATTERNS[name], use_cache=False)
                assert report.notes["cluster"]["partial"]
            health = coord.health()
            assert health.state is not HealthState.HEALTHY
            assert killed in health.dead

            dump = tmp_path / "flight-coordinator-health-degraded.json"
            assert dump.exists()
            payload = json.loads(dump.read_text())
            kinds = {e["kind"] for e in payload["events"]}
            assert {
                "shard_kill", "shard_failure", "partial_result",
                "breaker_trip", "health_degraded",
            } <= kinds
            trip = [
                e for e in payload["events"]
                if e["kind"] == "breaker_trip"
            ]
            assert trip and trip[0]["shard"] == killed

    def test_shard_flight_op(self):
        with LocalCluster(num_shards=2, max_workers=1) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            payload = coord.shard_flight("shard0")
            kinds = {e["kind"] for e in payload["events"]}
            assert {"submit", "dispatch", "done"} <= kinds
            with pytest.raises(ClusterError):
                coord.shard_flight("nope")

    def test_all_shards_lost_dumps_and_raises(self, tmp_path):
        with LocalCluster(
            num_shards=2, max_workers=1, flight_dir=tmp_path
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            cluster.kill_shard(0)
            cluster.kill_shard(1)
            with pytest.raises(ClusterError):
                coord.query(gid, PATTERNS["3CF"], use_cache=False)
            dump = tmp_path / "flight-coordinator-query-failed.json"
            assert dump.exists()
