"""Cluster-wide observability: span shipping, health, chaos.

One distributed query must yield one coherent story: the coordinator's
scatter spans, every shard's ``worker.run_job`` → engine → simulator
subtree (re-anchored to coordinator time), per-replica reachability with
the breaker snapshots, and the counters a lost shard leaves behind.
"""

import json

import pytest

from repro.cluster import LocalCluster
from repro.core.config import xset_default
from repro.errors import ClusterError
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.resilience import HealthState
from repro.service import service
from repro.sim.host import run_on_soc


def demo_graph(n=60, deg=6.0, seed=11):
    return erdos_renyi(n, deg, seed=seed, name=f"obsdemo{n}")


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
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            _, by_name = _span_index(coord)

        assert len(by_name["cluster.query"]) == 1
        qspan = by_name["cluster.query"][0]

        # span coverage scales with the shard count, one subtree each
        shard_names = {f"shard{i}" for i in range(shards)}
        for name in ("cluster.scatter", "worker.run_job"):
            group = by_name[name]
            assert len(group) == shards, name
            assert {sp.attrs["shard"] for sp in group} == shard_names

        # every scatter span hangs off the query root
        scatter = {
            sp.attrs["shard"]: sp for sp in by_name["cluster.scatter"]
        }
        for sspan in scatter.values():
            assert sspan.parent_id == qspan.span_id
            assert sspan.attrs["outcome"] == "ok"

        # each shard's job root was re-parented under its scatter span
        # and re-anchored to coordinator time inside it
        for jspan in by_name["worker.run_job"]:
            sspan = scatter[jspan.attrs["shard"]]
            assert jspan.parent_id == sspan.span_id
            assert jspan.start >= sspan.start - 1e-9
            assert jspan.end <= sspan.end + 1e-9
            assert jspan.attrs["lane"] == jspan.attrs["shard"]
            assert jspan.attrs["replica"] == jspan.attrs["shard"]

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
            events = coord.export_trace()
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
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            with pytest.raises(ClusterError):
                coord.export_trace()

    def test_coordinator_trace_is_bounded(self, monkeypatch):
        """A long-lived traced coordinator keeps the most recent spans
        only, bounded like the service's own tracer."""
        monkeypatch.setattr(service, "TRACE_SPAN_LIMIT", 40)
        with LocalCluster(
            num_shards=1, observability=True, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            for _ in range(12):
                coord.query(gid, PATTERNS["3CF"], use_cache=False)
            spans, by_name = _span_index(coord)
        assert len(spans) == 40
        # the newest query's whole tree survives the eviction
        assert spans[-1] is by_name["cluster.query"][-1]
        assert by_name["worker.run_job"][-1].parent_id == \
            by_name["cluster.scatter"][-1].span_id

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
        assert len(by_name["worker.run_job"]) == 2


class TestFederationOverCluster:
    def test_health_federates_and_reports_state(self):
        """One entry per replica, each answering its ping; every
        breaker closed, so the cluster is healthy."""
        with LocalCluster(
            num_shards=2, replicas=2, max_workers=1
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            health = coord.health()
        assert health.state is HealthState.HEALTHY
        assert health.dead == ()
        assert sorted(health.shards) == [
            "shard0/r0", "shard0/r1", "shard1/r0", "shard1/r1"
        ]
        assert all(health.shards.values())
        assert "4/4 shards reachable" in health.summary()


class TestClusterChaos:
    def test_kill_trips_breaker_and_degrades_health(self):
        graph = demo_graph()
        with LocalCluster(
            num_shards=3, observability=True, max_workers=1,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            killed = cluster.kill_shard(1)
            # two partial queries: the second trips shard1's breaker
            for name in ("TT", "DIA"):
                report = coord.query(gid, PATTERNS[name], use_cache=False)
                assert report.notes["cluster"]["partial"]
                assert report.notes["cluster"]["failed_shards"] == [killed]
            health = coord.health()
            assert health.state is not HealthState.HEALTHY
            assert killed in health.dead
            assert health.breakers[killed].state == "open"
            assert health.breakers[killed].failures >= 2
            assert {
                name for name, snap in health.breakers.items()
                if snap.state != "closed"
            } == {killed}
            assert coord.metrics.counter(
                "repro_cluster_partial_results_total"
            ).value == 2

    def test_all_shards_lost_raises(self):
        with LocalCluster(num_shards=2, max_workers=1) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(demo_graph())
            cluster.kill_shard(0)
            cluster.kill_shard(1)
            with pytest.raises(ClusterError):
                coord.query(gid, PATTERNS["3CF"], use_cache=False)
            # a failed query is no partial result
            assert coord.metrics.counter(
                "repro_cluster_partial_results_total"
            ).value == 0
