"""Replica groups, failover, breaker-driven recovery, exactly-once merging.

The headline chaos property: with ``cluster_replicas >= 2``, killing any
single replica mid-workload yields **byte-identical** counts to a
single-node run with **zero** partial results — on both transports, all
engines, labeled patterns included.
"""

import time

import pytest

from repro.cluster import LocalCluster, coordinator, merge_replies
from repro.core.config import xset_default
from repro.engine import available_engines
from repro.errors import ClusterError, ConfigError
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    inject_comm,
)
from repro.sim.host import run_on_soc
from repro.sim.report import SimReport


def _reference(graph, pattern, engine="codegen"):
    cfg = xset_default(engine=engine)
    return run_on_soc(graph, build_plan(pattern), cfg).embeddings


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
        with LocalCluster(num_shards=2, config=cfg) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            # a transient frame drop: the retry on the same replica serves
            injector = FaultInjector((
                FaultSpec(site="comm.send", kind=FaultKind.DROP),
            ))
            with inject_comm(injector):
                report = coord.query(gid, PATTERNS["3CF"])
            assert injector.events.get("comm.send:drop") == 1
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
        with LocalCluster(num_shards=1, config=cfg, replicas=2) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)

            def order():
                return [
                    r.name for r in coord._candidates(coord._groups[0], gid)
                ]

            assert order() == ["shard0/r0", "shard0/r1"]
            cluster.kill_replica(0, 0)
            coord.query(gid, PATTERNS["3CF"])
            assert order() == ["shard0/r1", "shard0/r0"]
            # one success clears the streak: configured order again
            cluster.revive_replica(0, 0)
            coord.health()
            assert order() == ["shard0/r0", "shard0/r1"]

    def test_revived_replica_serves_after_its_breaker_recovers(
        self, monkeypatch
    ):
        """A killed replica comes back through its comm breaker: once
        the recovery window has passed, one half-open request lets it
        serve again."""
        monkeypatch.setattr(coordinator, "BREAKER_RECOVERY_SECONDS", 0.0)
        g = erdos_renyi(60, 6.0, seed=17)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=2, config=cfg, replicas=2) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_replica(0, 0)
            coord.query(gid, PATTERNS["3CF"])  # r0 fails once, r1 serves
            # r0's second failure opens its breaker
            breakers = coord.health().breakers
            assert [
                name for name, snap in breakers.items()
                if snap.state != "closed"
            ] == ["shard0/r0"]
            cluster.revive_replica(0, 0)
            cluster.kill_replica(0, 1)
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
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            injector = FaultInjector((
                FaultSpec(site="comm.send", kind=FaultKind.DROP),
            ))
            with inject_comm(injector):
                report = coord.query(gid, PATTERNS["3CF"])
            assert injector.events.get("comm.send:drop") == 1
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False
            assert report.notes["cluster"]["failovers"] >= 1

    def test_dropped_reply_fails_over(self):
        """comm.recv DROP loses the reply *after* the worker did the
        work — the retried subquery must still count exactly once."""
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            injector = FaultInjector((
                FaultSpec(site="comm.recv", kind=FaultKind.DROP),
            ))
            with inject_comm(injector):
                report = coord.query(gid, PATTERNS["3CF"])
            assert injector.events.get("comm.recv:drop") == 1
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_delayed_frame_still_exact(self):
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            injector = FaultInjector((
                FaultSpec(site="comm.send", kind=FaultKind.DELAY,
                          seconds=0.05),
            ))
            with inject_comm(injector):
                report = coord.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_corrupt_frame_fails_over_on_tcp(self):
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="codegen")
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode="thread",
            max_workers=1, replicas=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            injector = FaultInjector((
                FaultSpec(site="comm.send",
                          kind=FaultKind.CORRUPT_FRAME, bit=0),
            ))
            with inject_comm(injector):
                report = coord.query(gid, PATTERNS["3CF"])
            assert injector.events.get("comm.send:corrupt-frame") == 1
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False


# -- one shard's incident, from kill to revive --------------------------------


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
        the shard is down names it as the one failed shard, the first
        after the revive is whole, and a second kill opens a new one.
        The revived shard is let back in by its breaker's half-open
        request, not after a 30 s recovery window."""
        monkeypatch.setattr(coordinator, "BREAKER_RECOVERY_SECONDS", 0.0)
        g = erdos_renyi(50, 6.0, seed=7)
        cfg = xset_default(engine="codegen")
        with LocalCluster(num_shards=2, config=cfg) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_shard(1)
            for _ in range(3):
                report = coord.query(gid, PATTERNS["3CF"])
                assert report.notes["cluster"]["partial"] is True
                assert report.notes["cluster"]["failed_shards"] == [
                    "shard1"
                ]
            # recovery closes the incident...
            cluster.revive_replica(1, 0)
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["partial"] is False
            assert report.notes["cluster"]["served_by"]["shard1"] == \
                "shard1"
            # ...and the next kill opens a fresh one
            cluster.kill_shard(1)
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["failed_shards"] == ["shard1"]
            assert coord.metrics.counter(
                "repro_cluster_partial_results_total"
            ).value == 4
