"""Replica groups, failover, breaker-driven recovery, exactly-once merging.

The headline chaos property: with ``cluster_replicas >= 2``, killing any
single replica mid-workload yields **byte-identical** counts to a
single-node run with **zero** partial results — on both transports, all
engines, labeled patterns included.

Wire failures (a lost request, a lost reply, a slow frame, a link that
goes down and comes back) are driven by :class:`FlakyTransport`, a
transport wrapper the tests hand a :class:`Coordinator` of their own:
the shipped transports carry no fault hook.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.cluster import Coordinator, LocalCluster, coordinator, merge_replies
from repro.cluster.comm import get_transport
from repro.cluster.comm import inproc as inproc_mod
from repro.cluster.comm import tcp as tcp_mod
from repro.core.config import xset_default
from repro.engine import available_engines
from repro.errors import ClusterError, CommClosedError, ConfigError
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.sim.host import run_on_soc
from repro.sim.report import SimReport


def _reference(graph, pattern, engine="codegen"):
    cfg = xset_default(engine=engine)
    return run_on_soc(graph, build_plan(pattern), cfg).embeddings


class FlakyTransport:
    """An inproc transport whose connections fail on cue.

    ``to_drop["request"]`` / ``to_drop["reply"]`` lose that many of the
    next requests before they are sent / replies after the shard ran the
    request; ``delay`` stalls every request that many seconds; an
    address put :meth:`down` refuses dials and requests until it is
    brought :meth:`up`.  A lost frame closes the wrapped connection, as a
    failed tcp request does, so the coordinator has to dial again.
    ``dropped`` counts what was lost.
    """

    def __init__(self) -> None:
        self._inner = get_transport("inproc")
        self._lock = threading.Lock()
        self._down: set[str] = set()
        self.to_drop = {"request": 0, "reply": 0}
        self.dropped = {"request": 0, "reply": 0}
        self.delay = 0.0

    def connect(self, address):
        self._check(address)
        return _FlakyConnection(self, address, self._inner.connect(address))

    def down(self, address: str) -> None:
        self._down.add(address)

    def up(self, address: str) -> None:
        self._down.discard(address)

    def _check(self, address: str) -> None:
        if address in self._down:
            raise CommClosedError(f"link to {address} is down")

    def _take(self, what: str) -> bool:
        """Spend one ``to_drop[what]`` if any is left."""
        with self._lock:
            if not self.to_drop[what]:
                return False
            self.to_drop[what] -= 1
            self.dropped[what] += 1
            return True


class _FlakyConnection:
    def __init__(self, transport: FlakyTransport, address: str, inner):
        self._transport = transport
        self._address = address
        self._inner = inner

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def _lose(self, what: str):
        self._inner.close()
        return CommClosedError(f"{what} to {self._address} was lost")

    def request(self, payload, timeout=None):
        flaky = self._transport
        flaky._check(self._address)
        if flaky._take("request"):
            raise self._lose("request")
        time.sleep(flaky.delay)
        value = self._inner.request(payload, timeout=timeout)
        if flaky._take("reply"):
            raise self._lose("reply")
        return value

    def close(self) -> None:
        self._inner.close()


def _flaky_coordinator(cluster, flaky) -> Coordinator:
    """A coordinator over ``cluster``'s workers that dials through
    ``flaky``, grouped and named as ``LocalCluster`` groups them."""
    return Coordinator(
        [
            (f"shard{i}", [(w.name, w.address) for w in group])
            for i, group in enumerate(cluster.worker_groups)
        ],
        flaky,
        cluster.config,
    )


# -- exactly-once merge guards (satellite: merge.py under replicas) ---------


class TestMergeReplies:
    def _reply(self, lo, hi, embeddings):
        return ((lo, hi), SimReport(embeddings=embeddings))

    def test_merges_disjoint_ranges(self):
        merged = merge_replies(
            [self._reply(0, 10, 3), self._reply(10, 20, 4)],
            graph_name="g",
            pattern_name="p",
        )
        assert merged.embeddings == 7
        assert merged.graph_name == "g"

    def test_same_range_twice_rejected(self):
        with pytest.raises(ClusterError, match="answered twice"):
            merge_replies(
                [self._reply(0, 10, 3), self._reply(0, 10, 3)]
            )

    def test_overlap_rejected(self):
        with pytest.raises(ClusterError, match="overlap"):
            merge_replies(
                [self._reply(0, 12, 3), self._reply(10, 20, 4)]
            )

    def test_malformed_range_rejected(self):
        with pytest.raises(ClusterError, match="malformed"):
            merge_replies([self._reply(10, 4, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ClusterError):
            merge_replies([])


# -- lifecycle ----------------------------------------------------------------


class TestShutdownReleasesShards:
    def test_a_shut_down_inproc_cluster_is_collected(self):
        """Closing an inproc listener drops it from the address table, so
        nothing keeps a shut-down worker (its graphs, its cache) alive."""
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=2, config=cfg) as cluster:
            gid = cluster.coordinator.register_graph(g)
            cluster.coordinator.query(gid, PATTERNS["3CF"])
            worker = weakref.ref(cluster.workers[0])
            addresses = {w.address for w in cluster.workers}
        del cluster
        gc.collect()
        assert worker() is None
        assert not addresses & set(inproc_mod._listeners)
        assert not any(
            listener._closed for listener in inproc_mod._listeners.values()
        )


# -- config surface -------------------------------------------------------


class TestReplicationConfig:
    def test_cluster_replicas_validated(self):
        with pytest.raises(ConfigError):
            xset_default(cluster_replicas=0)
        assert xset_default(cluster_replicas=3).cluster_replicas == 3

    def test_config_drives_local_cluster(self):
        cfg = xset_default(
            engine="codegen", cluster_shards=2, cluster_replicas=2
        )
        with LocalCluster(config=cfg) as cluster:
            assert len(cluster.workers) == 4
            assert len(cluster.worker_groups) == 2

    def test_replica_naming(self):
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=2, config=cfg, replicas=2) as c:
            names = [w.name for w in c.workers]
            assert names == [
                "shard0/r0", "shard0/r1", "shard1/r0", "shard1/r1"
            ]
        with LocalCluster(num_shards=2, config=cfg) as c:
            assert [w.name for w in c.workers] == ["shard0", "shard1"]


# -- the headline chaos property --------------------------------------------


class TestFailover:
    """Killing any single replica: byte-identical counts, zero partial."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("engine", sorted(available_engines()))
    def test_kill_replica_mid_workload(self, transport, engine):
        g = erdos_renyi(90, 7.0, seed=21, name="er90")
        cfg = xset_default(engine=engine)
        patterns = [PATTERNS[n] for n in ("3CF", "DIA")]
        expected = {
            p.name: _reference(g, p, engine=engine) for p in patterns
        }
        mode = "inline" if transport == "inproc" else "thread"
        with LocalCluster(
            num_shards=2,
            config=cfg,
            transport=transport,
            mode=mode,
            max_workers=1,
            replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            # healthy pass first: the workload is mid-flight when the
            # replica dies
            r = coord.query(gid, patterns[0])
            assert r.embeddings == expected["3CF"]
            assert r.notes["cluster"]["partial"] is False
            killed = cluster.kill_replica(0, 0)
            assert killed == "shard0/r0"
            for pattern in patterns:
                report = coord.query(gid, pattern)
                info = report.notes["cluster"]
                assert report.embeddings == expected[pattern.name], (
                    transport, engine, pattern.name
                )
                assert info["partial"] is False
                assert info["failed_shards"] == []
            # the surviving sibling served shard0
            assert info["served_by"]["shard0"] == "shard0/r1"

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_labeled_patterns_survive_kill(self, transport, rng):
        g = erdos_renyi(80, 7.0, seed=13).with_labels(
            rng.integers(0, 3, 80)
        )
        pattern = PATTERNS["3CF"].with_labels([0, 1, 2])
        expected = _reference(g, pattern)
        cfg = xset_default(engine="codegen")
        mode = "inline" if transport == "inproc" else "thread"
        with LocalCluster(
            num_shards=2, config=cfg, transport=transport, mode=mode,
            max_workers=1, replicas=2,
        ) as cluster:
            gid = cluster.coordinator.register_graph(g)
            cluster.kill_replica(1, 0)
            report = cluster.coordinator.query(gid, pattern)
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    @pytest.mark.parametrize("victim", [0, 1])
    def test_any_replica_position_is_survivable(self, victim):
        g = erdos_renyi(70, 6.0, seed=9)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=3, config=cfg, replicas=2,
        ) as cluster:
            gid = cluster.coordinator.register_graph(g)
            for shard in range(3):
                cluster.kill_replica(shard, victim)
                break  # one dead replica at a time is the contract
            report = cluster.coordinator.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_failover_observability(self):
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_replica(0, 0)
            report = coord.query(gid, PATTERNS["3CF"])
            assert coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value >= 1
            # the failover's record: shard0 was served by its sibling
            info = report.notes["cluster"]
            assert info["failovers"] >= 1
            assert info["served_by"]["shard0"] == "shard0/r1"
            text = coord.metrics.render_prometheus()
            assert "repro_cluster_replica_failovers_total" in text

    def test_both_replicas_dead_degrades_not_lies(self):
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_replica(0, 0)
            cluster.kill_replica(0, 1)
            report = coord.query(gid, PATTERNS["3CF"])
            info = report.notes["cluster"]
            assert info["partial"] is True
            assert info["failed_shards"] == ["shard0"]
            with pytest.raises(ClusterError, match="partial"):
                coord.count(gid, PATTERNS["3CF"])

    def test_single_replica_unchanged_semantics(self):
        """replicas=1: a killed shard degrades, exactly as before."""
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=2, config=cfg,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_shard(1)
            report = coord.query(gid, PATTERNS["3CF"])
            info = report.notes["cluster"]
            assert info["partial"] is True
            assert info["failed_shards"] == ["shard1"]

    def test_straggling_primary_is_waited_out(self):
        """A slow replica is not a dead one: the primary's answer is
        awaited, nothing fails over, and one reply is merged — for a
        first-contact shape, and for a warmed one straggling past 1 s
        (every subquery has the whole ``request_timeout``)."""
        g = erdos_renyi(50, 6.0, seed=5)
        cfg = xset_default(engine="codegen")
        # tcp: its request timeouts are real (inproc calls the handler
        # synchronously), so taking slowness for failure would show here
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode="thread",
            max_workers=1, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            primary = cluster.worker_groups[0][0]
            for name, seconds, warmed in (("3CF", 0.2, False),
                                          ("DIA", 1.3, True)):
                if warmed:
                    coord.query(gid, PATTERNS[name], use_cache=False)
                primary.arm_faults(
                    FaultPlan(seed=3, specs=(
                        FaultSpec(site="worker.run", kind=FaultKind.HANG,
                                  seconds=seconds),
                    ))
                )
                started = time.monotonic()
                report = coord.query(gid, PATTERNS[name], use_cache=False)
                # it did straggle
                assert time.monotonic() - started >= seconds
                primary.arm_faults(None)
                info = report.notes["cluster"]
                assert report.embeddings == _reference(g, PATTERNS[name])
                assert info["partial"] is False
                assert info["failovers"] == 0
                assert info["served_by"]["shard0"] == "shard0/r0"
                assert info["ok"] == 1  # exactly one reply merged
            assert coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value == 0

    def test_single_replica_retry_is_not_a_failover(self):
        """replicas=1: a retry goes back to the shard's only replica, so
        nothing is handed off — no failover counted, noted or recorded."""
        g = erdos_renyi(60, 6.0, seed=4)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(num_shards=2, config=cfg) as cluster, \
                _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            # a transient frame drop: the retry on the same replica serves
            flaky.to_drop["request"] = 1
            report = coord.query(gid, PATTERNS["3CF"])
            assert flaky.dropped["request"] == 1
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False
            assert report.notes["cluster"]["failovers"] == 0
            # a dead shard: every retry fails on the same replica
            cluster.kill_shard(1)
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["failed_shards"] == ["shard1"]
            assert coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value == 0
            assert report.notes["cluster"]["failovers"] == 0

    def test_failed_replica_ranks_behind_its_sibling(self):
        g = erdos_renyi(50, 6.0, seed=6)
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(num_shards=1, config=cfg, replicas=2) as cluster, \
                _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)

            def order():
                return [
                    r.name for r in coord._candidates(coord._groups[0], gid)
                ]

            assert order() == ["shard0/r0", "shard0/r1"]
            r0 = cluster.worker_groups[0][0].address
            flaky.down(r0)
            coord.query(gid, PATTERNS["3CF"])
            assert order() == ["shard0/r1", "shard0/r0"]
            # one success clears the streak: configured order again
            flaky.up(r0)
            coord.health()
            assert order() == ["shard0/r0", "shard0/r1"]

    def test_a_replica_serves_again_after_its_breaker_recovers(
        self, monkeypatch
    ):
        """A replica whose link went down comes back through its comm
        breaker: once the link is up and the recovery window has
        passed, one half-open request lets it serve again."""
        monkeypatch.setattr(coordinator, "BREAKER_RECOVERY_SECONDS", 0.0)
        g = erdos_renyi(60, 6.0, seed=17)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(num_shards=2, config=cfg, replicas=2) as cluster, \
                _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            r0, r1 = (w.address for w in cluster.worker_groups[0])
            flaky.down(r0)
            coord.query(gid, PATTERNS["3CF"])  # r0 fails once, r1 serves
            # r0's second failure opens its breaker
            breakers = coord.health().breakers
            assert [
                name for name, snap in breakers.items()
                if snap.state != "closed"
            ] == ["shard0/r0"]
            flaky.up(r0)
            flaky.down(r1)
            report = coord.query(gid, PATTERNS["3CF"])
            info = report.notes["cluster"]
            assert report.embeddings == expected
            assert info["partial"] is False
            assert info["served_by"]["shard0"] == "shard0/r0"


# -- comm-level fault injection ----------------------------------------------


class TestCommFaultFailover:
    def test_dropped_request_fails_over(self):
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster, _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            flaky.to_drop["request"] = 1
            report = coord.query(gid, PATTERNS["3CF"])
            assert flaky.dropped == {"request": 1, "reply": 0}
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False
            assert report.notes["cluster"]["failovers"] >= 1

    def test_dropped_reply_fails_over(self):
        """A dropped reply is lost *after* the worker did the work — the
        retried subquery must still count exactly once."""
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster, _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            flaky.to_drop["reply"] = 1
            report = coord.query(gid, PATTERNS["3CF"])
            assert flaky.dropped == {"request": 0, "reply": 1}
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_delayed_frame_still_exact(self):
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster, _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            flaky.delay = 0.05
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_corrupt_frame_fails_over_on_tcp(self, monkeypatch):
        """One request frame leaves with byte 0 of its length prefix
        flipped: the shard's server refuses the over-cap length and
        drops the connection, and the subquery fails over."""
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode="thread",
            max_workers=1, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            encode, flipped = tcp_mod.encode_frame, []

            def corrupting_encode(payload):
                frame = encode(payload)
                # requests are op dicts, replies ("ok", value) tuples
                if isinstance(payload, dict) and not flipped:
                    flipped.append(payload["op"])
                    frame = bytes([frame[0] ^ 0xFF]) + frame[1:]
                return frame

            monkeypatch.setattr(tcp_mod, "encode_frame", corrupting_encode)
            report = coord.query(gid, PATTERNS["3CF"])
            monkeypatch.undo()
            assert flipped == ["query"]
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False


# -- one shard's incident, from outage to recovery ---------------------------


class TestShardCrashRetry:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_shard_crash_is_retried(self, mode):
        """A crash on a shard leaves it as a ClusterError, and the
        coordinator's failover schedule retries it: on a single-replica
        shard the retry goes back to the same replica, so the count is
        exact, nothing is partial and nothing failed over."""
        g = erdos_renyi(50, 6.0, seed=5)
        cfg = xset_default(engine="codegen")
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=1.0,
                      max_fires=1),
        ))
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode=mode,
            max_workers=1,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.workers[0].arm_faults(plan)
            report = coord.query(gid, PATTERNS["3CF"], use_cache=False)
            failovers = coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value
        # the one crash the plan hands out was drawn by the query
        assert plan.for_job(99, 1) == ()
        info = report.notes["cluster"]
        assert report.embeddings == _reference(g, PATTERNS["3CF"])
        assert info["partial"] is False
        assert info["failovers"] == 0
        assert failovers == 0

    def test_a_pool_run_past_its_timeout_fails_as_a_cluster_error(self):
        """A process-mode shard whose pool run outlives the frame's
        timeout answers with a ClusterError naming the replica, so the
        coordinator's failover loop runs and reports its retry budget."""
        g = erdos_renyi(50, 6.0, seed=5)
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, transport="inproc", mode="process",
            max_workers=1, replicas=2, request_timeout=0.3,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.workers[0].arm_faults(FaultPlan(seed=1, specs=(
                FaultSpec(site="worker.run", kind=FaultKind.HANG,
                          rate=1.0, seconds=0.6),
            )))
            with pytest.raises(ClusterError) as failure:
                coord.query(gid, PATTERNS["3CF"], use_cache=False)
            failovers = coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value
        message = str(failure.value)
        assert "retry budget" in message
        assert "ClusterError" in message and "shard0/r0" in message
        assert "outlived" in message
        assert failovers >= 1  # the sibling replica was tried

    def test_a_timed_out_pool_run_lets_go_of_the_shard(self):
        """A pool run past its timeout takes its pool down with it: the
        next subquery runs on a fresh pool and answers exactly, and
        shutdown does not wait for the hung run to finish."""
        g = erdos_renyi(50, 6.0, seed=5)
        cfg = xset_default(engine="codegen")
        hang = 3.0
        with LocalCluster(
            num_shards=1, config=cfg, transport="inproc", mode="process",
            max_workers=1, request_timeout=1.0,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)  # warm
            cluster.workers[0].arm_faults(FaultPlan(seed=1, specs=(
                FaultSpec(site="worker.run", kind=FaultKind.HANG,
                          seconds=hang, max_fires=1),
            )))
            started = time.monotonic()
            with pytest.raises(ClusterError, match="outlived"):
                coord.query(gid, PATTERNS["3CF"], use_cache=False)
            report = coord.query(gid, PATTERNS["DIA"], use_cache=False)
        assert time.monotonic() - started < hang - 0.5
        assert report.embeddings == _reference(g, PATTERNS["DIA"])
        assert report.notes["cluster"]["partial"] is False

    def test_a_broken_pool_is_replaced(self):
        """A process-mode shard whose pool worker died drops the broken
        pool; the coordinator's retry runs on a fresh one."""
        g = erdos_renyi(50, 6.0, seed=5)
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, mode="process", max_workers=1,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            shard = cluster.workers[0]
            broken = shard._pool
            for proc in list(broken._processes.values()):
                proc.kill()
                proc.join(timeout=10)
            report = coord.query(gid, PATTERNS["DIA"], use_cache=False)
            assert shard._pool is not None and shard._pool is not broken
        info = report.notes["cluster"]
        assert report.embeddings == _reference(g, PATTERNS["DIA"])
        assert info["partial"] is False and info["failovers"] == 0


class TestIncidentDedupe:
    def test_one_shard_failure_event_per_incident(self, monkeypatch):
        """An incident is read from the query notes: every query while
        the shard's link is down names it as the one failed shard, the
        first after the link comes back is whole, and a second outage
        opens a new one.  The shard is let back in by its breaker's
        half-open request, not after a 30 s recovery window."""
        monkeypatch.setattr(coordinator, "BREAKER_RECOVERY_SECONDS", 0.0)
        g = erdos_renyi(50, 6.0, seed=7)
        cfg = xset_default(engine="codegen")
        flaky = FlakyTransport()
        with LocalCluster(num_shards=2, config=cfg) as cluster, \
                _flaky_coordinator(cluster, flaky) as coord:
            gid = coord.register_graph(g)
            shard1 = cluster.workers[1].address
            flaky.down(shard1)
            for _ in range(3):
                report = coord.query(gid, PATTERNS["3CF"])
                assert report.notes["cluster"]["partial"] is True
                assert report.notes["cluster"]["failed_shards"] == [
                    "shard1"
                ]
            # recovery closes the incident...
            flaky.up(shard1)
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["partial"] is False
            assert report.notes["cluster"]["served_by"]["shard1"] == \
                "shard1"
            # ...and the next outage opens a fresh one
            flaky.down(shard1)
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["failed_shards"] == ["shard1"]
            assert coord.metrics.counter(
                "repro_cluster_partial_results_total"
            ).value == 4
