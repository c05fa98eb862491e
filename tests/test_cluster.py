"""The sharded query cluster: comm, partitioning, equivalence, chaos."""

import faulthandler
import os
import pickle

import numpy as np
import pytest

from repro.cluster import (
    Coordinator,
    LocalCluster,
    ShardWorker,
    available_transports,
    contiguous_cuts,
    get_transport,
    halo_vertices,
    induced_subgraph,
    make_shards,
    merge_reports,
)
from repro.cluster.comm.base import (
    decode_body,
    encode_frame,
    frame_size,
)
from repro.core.config import xset_default
from repro.errors import (
    ClusterError,
    CommClosedError,
    CommError,
    ConfigError,
)
from repro.graph import CSRGraph, erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.resilience import HealthState
from repro.sim.host import run_on_soc
from repro.sim.report import SimReport


def shm_segments():
    """Graph-store segments currently visible in /dev/shm (Linux)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return [f for f in os.listdir("/dev/shm") if f.startswith("xset-")]


def star_graph(n=60):
    """One hub adjacent to everyone plus a rim path: boundary-heavy."""
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    return CSRGraph.from_edges(n, edges, name=f"star{n}")


def near_clique(n=24):
    """A clique with a few spokes knocked out: dense cross-shard edges."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u * 7 + v) % 11 != 0
    ]
    return CSRGraph.from_edges(n, edges, name=f"nearclique{n}")


# -- comm layer -------------------------------------------------------------


class TestComm:
    def test_frame_roundtrip(self):
        frame = encode_frame({"op": "ping", "n": 3})
        size = frame_size(frame[:8])
        assert size == len(frame) - 8
        assert decode_body(frame[8:]) == {"op": "ping", "n": 3}

    def test_frame_size_cap(self):
        import struct

        with pytest.raises(CommError):
            frame_size(struct.pack(">Q", 1 << 40))

    def test_transport_registry(self):
        assert "inproc" in available_transports()
        assert "tcp" in available_transports()
        with pytest.raises(CommError):
            get_transport("carrier-pigeon")

    @pytest.mark.parametrize("name", ["inproc", "tcp"])
    def test_request_roundtrip(self, name):
        transport = get_transport(name)
        listener = transport.listen(lambda p: {"echo": p}, name="t")
        try:
            conn = transport.connect(listener.address)
            assert conn.request([1, "two"], timeout=10) == {
                "echo": [1, "two"]
            }
            conn.close()
        finally:
            listener.close()

    @pytest.mark.parametrize("name", ["inproc", "tcp"])
    def test_handler_exception_propagates(self, name):
        def boom(payload):
            raise ValueError("nope")

        transport = get_transport(name)
        listener = transport.listen(boom)
        try:
            conn = transport.connect(listener.address)
            with pytest.raises(ValueError, match="nope"):
                conn.request("x", timeout=10)
            conn.close()
        finally:
            listener.close()

    @pytest.mark.parametrize("name", ["inproc", "tcp"])
    def test_closed_listener_looks_dead(self, name):
        transport = get_transport(name)
        listener = transport.listen(lambda p: p)
        conn = transport.connect(listener.address)
        listener.close()
        with pytest.raises(CommClosedError):
            conn.request("hello", timeout=5)
        with pytest.raises(CommClosedError):
            transport.connect(listener.address)

    def test_inproc_address_is_fresh(self):
        transport = get_transport("inproc")
        a = transport.listen(lambda p: p)
        b = transport.listen(lambda p: p)
        assert a.address != b.address
        a.close()
        b.close()


# -- partitioning -----------------------------------------------------------


class TestPartition:
    def test_cuts_tile_the_range(self):
        g = erdos_renyi(97, 6.0, seed=2)
        cuts = contiguous_cuts(g.degrees, 5)
        assert cuts[0][0] == 0 and cuts[-1][1] == 97
        for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
            assert hi == lo
        # degree-balanced: no shard hoards most of the edge mass
        masses = [int(g.degrees[lo:hi].sum()) for lo, hi in cuts]
        assert max(masses) < g.degrees.sum() * 0.6

    def test_more_shards_than_vertices(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        cuts = contiguous_cuts(g.degrees, 7)
        assert len(cuts) == 7
        assert sum(hi - lo for lo, hi in cuts) == 3

    def test_halo_reaches_hops(self):
        g = star_graph(20)  # rim vertex i is 2 hops from rim vertex j
        one = halo_vertices(g, 5, 6, hops=1)
        # vertex 5's neighbours: hub 0 and rim 4, 6
        assert set(one.tolist()) == {0, 4, 5, 6}
        two = halo_vertices(g, 5, 6, hops=2)
        assert set(two.tolist()) == set(range(20))  # hub reaches all

    def test_induced_subgraph_preserves_order(self, toy_graph):
        vertices = np.array([1, 3, 4, 5], dtype=np.int64)
        sub = induced_subgraph(toy_graph, vertices, name="sub")
        assert sub.num_vertices == 4
        # local ids keep the global relative order (monotone compaction)
        for local, global_v in enumerate(vertices):
            expect = [
                int(np.searchsorted(vertices, w))
                for w in toy_graph.neighbors(global_v)
                if w in set(vertices.tolist())
            ]
            assert sub.neighbors(local).tolist() == expect
            assert sub.neighbors(local).tolist() == sorted(expect)

    def test_induced_subgraph_carries_labels(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).with_labels(
            [5, 6, 7, 8]
        )
        sub = induced_subgraph(g, np.array([1, 3]), name="sub")
        assert sub.labels.tolist() == [6, 8]

    def test_make_shards_owned_ranges_are_local_contiguous(self):
        g = erdos_renyi(80, 7.0, seed=4)
        specs = make_shards(g, num_shards=3, halo_hops=2)
        assert sum(s.owned for s in specs) == 80
        for spec in specs:
            owned_globals = spec.vertices[spec.local_lo:spec.local_hi]
            assert owned_globals.tolist() == list(range(spec.lo, spec.hi))

    def test_specs_pickle(self):
        g = erdos_renyi(40, 5.0, seed=9)
        spec = make_shards(g, num_shards=2, halo_hops=2)[0]
        again = pickle.loads(pickle.dumps(spec))
        assert again.graph.num_vertices == spec.graph.num_vertices


# -- merge ------------------------------------------------------------------


class TestMerge:
    def test_sums_and_maxes(self):
        a = SimReport(embeddings=3, tasks=10, cycles=100.0,
                      host_cycles=5.0, siu_busy_cycles=50.0, num_sius=4,
                      dram_bytes=64, wall_seconds=0.5)
        b = SimReport(embeddings=4, tasks=7, cycles=80.0,
                      host_cycles=9.0, siu_busy_cycles=40.0, num_sius=4,
                      dram_bytes=32, wall_seconds=0.9)
        merged = merge_reports([a, b], graph_name="g", pattern_name="p")
        assert merged.embeddings == 7
        assert merged.tasks == 17
        assert merged.cycles == 100.0       # makespan
        assert merged.host_cycles == 9.0
        assert merged.wall_seconds == 0.9
        assert merged.num_sius == 8
        assert merged.dram_bytes == 96
        assert merged.graph_name == "g"

    def test_empty_raises(self):
        with pytest.raises(ClusterError):
            merge_reports([])


# -- end-to-end equivalence -------------------------------------------------


def _reference(graph, pattern, induced=None):
    cfg = xset_default(engine="codegen")
    return run_on_soc(graph, build_plan(pattern, induced=induced),
                      cfg).embeddings


class TestEquivalence:
    """Sharded counts == single-node codegen counts, exactly."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("pattern", ["3CF", "4CF", "DIA", "TT"])
    def test_er_graph(self, shards, pattern):
        g = erdos_renyi(120, 9.0, seed=6, name="er120")
        expected = _reference(g, PATTERNS[pattern])
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=shards, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(g)
            assert cluster.coordinator.count(
                gid, PATTERNS[pattern]
            ) == expected

    @pytest.mark.parametrize("shards", [2, 4, 7])
    @pytest.mark.parametrize("make", [star_graph, near_clique])
    def test_boundary_heavy_topologies(self, shards, make):
        g = make()
        cfg = xset_default(engine="codegen")
        for pattern in ("3CF", "WEDGE", "DIA"):
            expected = _reference(g, PATTERNS[pattern])
            with LocalCluster(num_shards=shards, config=cfg) as cluster:
                gid = cluster.coordinator.register_graph(g)
                assert cluster.coordinator.count(
                    gid, PATTERNS[pattern]
                ) == expected, (make.__name__, pattern, shards)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_labeled(self, shards, rng):
        g = erdos_renyi(90, 8.0, seed=12).with_labels(
            rng.integers(0, 3, 90)
        )
        pattern = PATTERNS["3CF"].with_labels([0, 1, 2])
        expected = _reference(g, pattern)
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=shards, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(g)
            assert cluster.coordinator.count(gid, pattern) == expected

    def test_event_engine_and_tcp(self):
        g = erdos_renyi(70, 7.0, seed=8)
        cfg = xset_default()  # event engine
        expected = run_on_soc(g, build_plan(PATTERNS["3CF"]),
                              cfg).embeddings
        with LocalCluster(
            num_shards=3, config=cfg, transport="tcp", mode="thread",
            max_workers=1,
        ) as cluster:
            gid = cluster.coordinator.register_graph(g)
            assert cluster.coordinator.count(
                gid, PATTERNS["3CF"]
            ) == expected

    def test_codegen_engine_inproc_process(self, capfd):
        """Process-backed shards on the inproc transport with codegen:
        this combination's first query used to deadlock when a worker
        was forked mid resource-tracker launch (``repro.graph.store``).
        Should a hang return, every thread's stack goes to the real
        stderr and the run ends, instead of tier-1 stalling silently."""
        g = erdos_renyi(150, 10.0, seed=11)
        cfg = xset_default(engine="codegen")
        with capfd.disabled():
            faulthandler.dump_traceback_later(120.0, exit=True)
            try:
                with LocalCluster(
                    num_shards=2, config=cfg, mode="process",
                    max_workers=1,
                ) as cluster:
                    gid = cluster.coordinator.register_graph(g)
                    for name in ("3CF", "DIA", "4CF"):
                        assert cluster.coordinator.count(
                            gid, PATTERNS[name], use_cache=False
                        ) == _reference(g, PATTERNS[name]), name
            finally:
                faulthandler.cancel_dump_traceback_later()

    def test_merged_report_accounting(self):
        g = erdos_renyi(100, 8.0, seed=3)
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=4, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(g)
            report = cluster.coordinator.query(gid, PATTERNS["3CF"])
        info = report.notes["cluster"]
        assert info["partial"] is False
        assert info["ok"] == info["queried"]
        assert report.graph_name == gid
        assert report.pattern_name == "3CF"
        assert report.tasks > 0 and report.cycles > 0


# -- coordinator semantics --------------------------------------------------


class TestCoordinator:
    def test_unknown_graph(self):
        with LocalCluster(num_shards=2) as cluster:
            with pytest.raises(ClusterError, match="unknown cluster"):
                cluster.coordinator.query(
                    "missing", PATTERNS["3CF"]
                )

    def test_duplicate_register(self, small_er):
        with LocalCluster(num_shards=2) as cluster:
            cluster.coordinator.register_graph(small_er)
            with pytest.raises(ClusterError, match="already registered"):
                cluster.coordinator.register_graph(small_er)

    def test_unregister(self, small_er):
        with LocalCluster(num_shards=2) as cluster:
            gid = cluster.coordinator.register_graph(small_er)
            assert gid in cluster.coordinator.graphs()
            cluster.coordinator.unregister_graph(gid)
            assert cluster.coordinator.graphs() == ()
            with pytest.raises(ClusterError):
                cluster.coordinator.query(gid, PATTERNS["3CF"])

    def test_halo_too_shallow_rejected(self, small_er):
        cfg = xset_default(engine="codegen", cluster_halo_hops=1)
        with LocalCluster(num_shards=2, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(small_er)
            # 3CF needs stop_level 2 > halo 1
            with pytest.raises(ClusterError, match="halo"):
                cluster.coordinator.query(gid, PATTERNS["3CF"])

    def test_halo_config_validated(self):
        with pytest.raises(ConfigError):
            xset_default(cluster_halo_hops=0)
        with pytest.raises(ConfigError):
            xset_default(cluster_shards=-1)

    def test_needs_a_shard(self):
        with pytest.raises(ClusterError):
            Coordinator([], "inproc")

    def test_a_shard_needs_a_replica(self):
        with pytest.raises(ClusterError, match="empty replica list"):
            Coordinator([("shard0", [])], "inproc")

    def test_cluster_shards_config_drives_local_cluster(self):
        cfg = xset_default(engine="codegen", cluster_shards=3)
        with LocalCluster(config=cfg) as cluster:
            assert len(cluster.workers) == 3


# -- resilience / chaos -----------------------------------------------------


class TestChaos:
    def test_killed_shard_degrades_not_fails(self):
        g = erdos_renyi(100, 8.0, seed=5)
        cfg = xset_default(engine="codegen")
        expected = _reference(g, PATTERNS["3CF"])
        with LocalCluster(num_shards=4, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(g)
            name = cluster.kill_shard(1)
            report = cluster.coordinator.query(gid, PATTERNS["3CF"])
            info = report.notes["cluster"]
            assert info["partial"] is True
            assert name in info["failed_shards"]
            # surviving shards still answered; the merged count is a
            # strict subset of the true total
            assert 0 < report.embeddings < expected
            # strict count() refuses partial results
            with pytest.raises(ClusterError, match="partial"):
                cluster.coordinator.count(gid, PATTERNS["3CF"])

    def test_dead_shard_degrades_health(self):
        with LocalCluster(num_shards=3) as cluster:
            assert cluster.coordinator.health().state is (
                HealthState.HEALTHY
            )
            name = cluster.kill_shard(2)
            health = cluster.coordinator.health()
            assert health.state is HealthState.DEGRADED
            assert name in health.dead
            assert name.upper() in health.summary().upper()

    def test_breaker_opens_after_failures(self, small_er):
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=2, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(small_er)
            cluster.kill_shard(0)
            # breaker threshold is 2: two failing scatters trip it
            cluster.coordinator.query(gid, PATTERNS["3CF"])
            cluster.coordinator.query(gid, PATTERNS["WEDGE"])
            snaps = cluster.coordinator._breakers.snapshots()
            assert snaps["shard0"].state == "open"
            # the next query skips the dead shard fast (breaker path)
            report = cluster.coordinator.query(gid, PATTERNS["DIA"])
            assert report.notes["cluster"]["partial"] is True

    def test_all_shards_dead_raises(self, small_er):
        with LocalCluster(num_shards=2) as cluster:
            gid = cluster.coordinator.register_graph(small_er)
            cluster.kill_shard(0)
            cluster.kill_shard(1)
            with pytest.raises(ClusterError, match="every"):
                cluster.coordinator.query(gid, PATTERNS["3CF"])


# -- shared-memory hygiene --------------------------------------------------


class TestShmHygiene:
    def test_cluster_shutdown_unlinks_segments(self):
        g = erdos_renyi(80, 7.0, seed=2, name="shm-clean")
        cfg = xset_default(engine="codegen")
        before = shm_segments()
        cluster = LocalCluster(
            num_shards=2, config=cfg, mode="process", max_workers=1
        )
        try:
            gid = cluster.coordinator.register_graph(g)
            cluster.coordinator.count(gid, PATTERNS["3CF"])
            assert len(shm_segments()) >= len(before)
        finally:
            cluster.shutdown()
        assert shm_segments() == before

    def test_killed_shard_segments_still_reclaimed(self):
        g = erdos_renyi(80, 7.0, seed=2, name="shm-chaos")
        cfg = xset_default(engine="codegen")
        before = shm_segments()
        cluster = LocalCluster(
            num_shards=2, config=cfg, mode="process", max_workers=1
        )
        try:
            gid = cluster.coordinator.register_graph(g)
            cluster.coordinator.count(gid, PATTERNS["3CF"])
            cluster.kill_shard(0)
        finally:
            cluster.shutdown()
        assert shm_segments() == before

    def test_registry_close_unlinks_retired_records(self):
        """update() then close() must not orphan the old snapshot."""
        from repro.service.registry import GraphRegistry

        before = shm_segments()
        registry = GraphRegistry()
        g1 = erdos_renyi(40, 5.0, seed=1, name="retire")
        g2 = erdos_renyi(40, 5.0, seed=2, name="retire")
        registry.register(g1, "retire")
        record = registry.get("retire")
        record.ship()                   # create the segment
        registry.update("retire", g2)   # retires the old record
        registry.get("retire").ship()
        assert len(shm_segments()) == len(before) + 2
        registry.close()
        assert shm_segments() == before


# -- worker-level details ---------------------------------------------------


class TestShardWorker:
    def test_unknown_op_rejected(self):
        transport = get_transport("inproc")
        worker = ShardWorker("w", transport)
        try:
            conn = transport.connect(worker.address)
            with pytest.raises(ClusterError, match="unknown cluster op"):
                conn.request({"op": "frobnicate"})
            with pytest.raises(ClusterError, match="malformed"):
                conn.request("not-a-dict")
        finally:
            worker.close()

    def test_ping_stats_shutdown(self):
        transport = get_transport("inproc")
        worker = ShardWorker("w2", transport)
        conn = transport.connect(worker.address)
        assert conn.request({"op": "ping"}) == "pong"
        with pytest.raises(ClusterError, match="unknown cluster op 'stats'"):
            conn.request({"op": "stats"})
        assert conn.request({"op": "shutdown"}) is True
        with pytest.raises(CommClosedError):
            conn.request({"op": "ping"})

    def test_query_without_register(self):
        transport = get_transport("inproc")
        worker = ShardWorker("w3", transport)
        try:
            conn = transport.connect(worker.address)
            with pytest.raises(ClusterError, match="no registered"):
                conn.request({
                    "op": "query", "graph_id": "nope",
                    "pattern": PATTERNS["3CF"],
                })
        finally:
            worker.close()
