"""Replica groups, failover, probing, exactly-once merging.

The headline chaos property: with ``cluster_replicas >= 2``, killing any
single replica mid-workload yields **byte-identical** counts to a
single-node run with **zero** partial results — on both transports, all
engines, labeled patterns included.
"""

import json
import time

import pytest

from repro.cluster import (
    HealthProber,
    LocalCluster,
    ReplicaGroup,
    ReplicaState,
    RetryPolicy,
    merge_replies,
)
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


def _reference(graph, pattern, engine="batched"):
    cfg = xset_default(engine=engine)
    return run_on_soc(graph, build_plan(pattern), cfg).embeddings


#: a retry policy with test-friendly backoff (milliseconds, not seconds)
FAST_RETRY = RetryPolicy(rounds=2, base=0.01, multiplier=2.0, cap=0.05)


def _eventually(condition, seconds=10.0):
    """Poll until ``condition()`` holds or the time is up; returns it."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


# -- policy objects ---------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(rounds=3, base=0.1, multiplier=4.0, cap=1.0)
        assert p.backoff(0) == 0.0
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(2) == pytest.approx(0.4)
        assert p.backoff(3) == pytest.approx(1.0)  # capped (1.6 -> 1.0)

    def test_validation(self):
        with pytest.raises(ClusterError):
            RetryPolicy(rounds=0)
        with pytest.raises(ClusterError):
            RetryPolicy(base=-0.1)
        with pytest.raises(ClusterError):
            RetryPolicy(multiplier=0.5)


class TestReplicaGroup:
    def test_configured_order_when_healthy(self):
        g = ReplicaGroup("s0", ["a", "b", "c"])
        assert g.ranked() == ["a", "b", "c"]

    def test_failure_demotes(self):
        g = ReplicaGroup("s0", ["a", "b"])
        assert g.mark_failure("a") is ReplicaState.SUSPECT
        assert g.ranked() == ["b", "a"]
        g.mark_success("a")
        assert g.ranked() == ["a", "b"]

    def test_evict_and_reintegrate(self):
        g = ReplicaGroup("s0", ["a", "b"])
        assert g.evict("a") is True
        assert g.evict("a") is False  # already evicted
        assert g.ranked() == ["b"]
        # a success on an evicted replica does not readmit it
        g.mark_success("a")
        assert g.state("a") is ReplicaState.EVICTED
        assert g.reintegrate("a") is True
        assert g.ranked() == ["a", "b"]

    def test_all_evicted_falls_back_to_everyone(self):
        g = ReplicaGroup("s0", ["a", "b"])
        g.evict("a")
        g.evict("b")
        assert g.ranked() == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ClusterError):
            ReplicaGroup("s0", [])
        with pytest.raises(ClusterError):
            ReplicaGroup("s0", ["a", "a"])
        with pytest.raises(ClusterError):
            ReplicaGroup("s0", ["a"]).state("nope")


class TestHealthProber:
    def test_evicts_after_consecutive_failures(self):
        alive = {"a": True, "b": True}
        evicted, rejoined = [], []
        prober = HealthProber(
            lambda r: alive[r],
            ["a", "b"],
            probe_failures=3,
            probe_recoveries=2,
            on_evict=evicted.append,
            on_rejoin=lambda r: rejoined.append(r) or True,
        )
        alive["a"] = False
        prober.step()
        prober.step()
        assert prober.evicted == ()  # 2 < probe_failures
        prober.step()
        assert prober.evicted == ("a",)
        assert evicted == ["a"]
        # recovery: two consecutive passing probes
        alive["a"] = True
        prober.step()
        assert prober.evicted == ("a",)
        prober.step()
        assert prober.evicted == ()
        assert rejoined == ["a"]

    def test_flap_resets_counters(self):
        alive = {"a": True}
        prober = HealthProber(
            lambda r: alive[r], ["a"], probe_failures=3,
            probe_recoveries=2,
        )
        alive["a"] = False
        prober.step()
        prober.step()
        alive["a"] = True
        prober.step()  # pass resets the failure streak
        alive["a"] = False
        prober.step()
        prober.step()
        assert prober.evicted == ()

    def test_rejoin_veto_keeps_evicted(self):
        alive = {"a": False}
        accept = {"value": False}
        prober = HealthProber(
            lambda r: alive[r], ["a"], probe_failures=1,
            probe_recoveries=1,
            on_rejoin=lambda r: accept["value"],
        )
        prober.step()
        assert prober.evicted == ("a",)
        alive["a"] = True
        prober.step()
        assert prober.evicted == ("a",)  # vetoed
        accept["value"] = True
        prober.step()
        assert prober.evicted == ()

    def test_ping_exception_counts_as_failure(self):
        def boom(_):
            raise RuntimeError("probe transport died")

        prober = HealthProber(boom, ["a"], probe_failures=1)
        assert prober.step() == {"a": False}
        assert prober.evicted == ("a",)

    def test_validation(self):
        with pytest.raises(ClusterError):
            HealthProber(lambda r: True, ["a"], probe_failures=0)


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
            engine="batched", cluster_shards=2, cluster_replicas=2
        )
        with LocalCluster(config=cfg) as cluster:
            assert len(cluster.workers) == 4
            assert len(cluster.worker_groups) == 2
            assert cluster.coordinator.replicated

    def test_replica_naming(self):
        cfg = xset_default(engine="batched")
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
            retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        mode = "inline" if transport == "inproc" else "thread"
        with LocalCluster(
            num_shards=2, config=cfg, transport=transport, mode=mode,
            max_workers=1, replicas=2, retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=3, config=cfg, replicas=2, retry=FAST_RETRY,
        ) as cluster:
            gid = cluster.coordinator.register_graph(g)
            for shard in range(3):
                cluster.kill_replica(shard, victim)
                break  # one dead replica at a time is the contract
            report = cluster.coordinator.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert report.notes["cluster"]["partial"] is False

    def test_failover_observability(self, tmp_path):
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2, retry=FAST_RETRY,
            flight_dir=tmp_path,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_replica(0, 0)
            coord.query(gid, PATTERNS["3CF"])
            assert coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value >= 1
            events = coord.flight.events("replica_failover")
            assert events and events[0].data["shard"] == "shard0"
            assert events[0].data["from_replica"] == "shard0/r0"
            text = coord.metrics_text()
            assert "repro_cluster_replica_failovers_total" in text
            assert "repro_cluster_replica_state" in text
            # the first failover auto-dumps the black box
            dump = tmp_path / "flight-coordinator-replica-failover.json"
            kinds = {
                e["kind"] for e in json.loads(dump.read_text())["events"]
            }
            assert "replica_failover" in kinds

    def test_both_replicas_dead_degrades_not_lies(self):
        g = erdos_renyi(60, 6.0, seed=4)
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2, retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, retry=FAST_RETRY,
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
        awaited, nothing fails over, and one reply is merged."""
        g = erdos_renyi(50, 6.0, seed=5)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="batched")
        # tcp: its request timeouts are real (inproc calls the handler
        # synchronously), so taking slowness for failure would show here
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode="thread",
            max_workers=1, replicas=2, retry=FAST_RETRY,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.worker_groups[0][0].service.arm_faults(
                FaultPlan(seed=3, specs=(
                    FaultSpec(site="worker.run", kind=FaultKind.HANG,
                              seconds=0.2),
                ))
            )
            started = time.monotonic()
            report = coord.query(gid, PATTERNS["3CF"])
            assert time.monotonic() - started >= 0.2  # it did straggle
            info = report.notes["cluster"]
            assert report.embeddings == expected
            assert info["partial"] is False
            assert info["failovers"] == 0
            assert info["served_by"]["shard0"] == "shard0/r0"
            assert info["ok"] == 1  # exactly one reply merged
            assert coord.metrics.counter(
                "repro_cluster_replica_failovers_total"
            ).value == 0


# -- probe-driven membership -------------------------------------------------


class TestProberIntegration:
    def test_evict_rejoin_cycle(self):
        g = erdos_renyi(60, 6.0, seed=17)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2, retry=FAST_RETRY,
            probe_failures=2, probe_recoveries=2,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_replica(0, 0)
            coord.prober.step()
            coord.prober.step()
            assert coord.prober.evicted == ("shard0/r0",)
            states = coord.replica_states()
            assert states["shard0"]["shard0/r0"] == "evicted"
            assert coord.flight.events("replica_evicted")
            # evicted replica is out of rotation: no failover needed
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert report.notes["cluster"]["failovers"] == 0
            assert (
                report.notes["cluster"]["served_by"]["shard0"]
                == "shard0/r1"
            )
            # recovery: revive, pass probes, rejoin re-registers + resets
            cluster.revive_replica(0, 0)
            coord.prober.step()
            coord.prober.step()
            assert coord.prober.evicted == ()
            assert (
                coord.replica_states()["shard0"]["shard0/r0"]
                == "healthy"
            )
            assert coord.flight.events("replica_rejoined")
            assert coord.metrics.counter(
                "repro_cluster_replica_evictions_total"
            ).value == 1
            assert coord.metrics.counter(
                "repro_cluster_replica_rejoins_total"
            ).value == 1
            # the rejoined primary serves again, exactly
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert (
                report.notes["cluster"]["served_by"]["shard0"]
                == "shard0/r0"
            )

    def test_rejoin_reships_graphs_registered_while_dead(self):
        g1 = erdos_renyi(50, 6.0, seed=2, name="g1")
        g2 = erdos_renyi(50, 6.0, seed=3, name="g2")
        expected = _reference(g2, PATTERNS["3CF"])
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2, retry=FAST_RETRY,
            probe_failures=1, probe_recoveries=1,
        ) as cluster:
            coord = cluster.coordinator
            coord.register_graph(g1)
            cluster.kill_replica(0, 0)
            coord.prober.step()
            assert coord.prober.evicted == ("shard0/r0",)
            # registered while shard0/r0 was dead: only the sibling holds it
            gid2 = coord.register_graph(g2)
            cluster.revive_replica(0, 0)
            coord.prober.step()
            assert coord.prober.evicted == ()
            # the rejoined primary must now hold g2 and serve it exactly
            report = coord.query(gid2, PATTERNS["3CF"])
            assert report.embeddings == expected
            assert (
                report.notes["cluster"]["served_by"]["shard0"]
                == "shard0/r0"
            )
            assert report.notes["cluster"]["partial"] is False

    def test_live_prober_evicts_then_rejoins(self):
        """The same cycle on the prober's own thread (``probe_interval``
        > 0) instead of hand-driven ``step()`` calls."""
        with LocalCluster(
            num_shards=1, config=xset_default(engine="batched"),
            replicas=2, retry=FAST_RETRY, probe_interval=0.02,
            probe_failures=2, probe_recoveries=2,
        ) as cluster:
            prober = cluster.coordinator.prober
            victim = cluster.kill_replica(0, 0)
            assert _eventually(lambda: victim in prober.evicted)
            cluster.revive_replica(0, 0)
            assert _eventually(lambda: victim not in prober.evicted)

    def test_health_reports_replica_states(self):
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, replicas=2, retry=FAST_RETRY,
            probe_failures=1,
        ) as cluster:
            coord = cluster.coordinator
            health = coord.health()
            assert health.replicas["shard0"]["shard0/r0"] == "healthy"
            assert health.evicted == ()
            cluster.kill_replica(1, 1)
            coord.prober.step()
            health = coord.health()
            assert health.replicas["shard1"]["shard1/r1"] == "evicted"
            assert "shard1/r1" in health.evicted
            assert health.state.name != "HEALTHY"
            assert health.to_dict()["replicas"]["shard1"][
                "shard1/r1"
            ] == "evicted"
            assert "shard1/r1" in health.summary()


# -- comm-level fault injection ----------------------------------------------


class TestCommFaultFailover:
    def test_dropped_request_fails_over(self):
        g = erdos_renyi(50, 6.0, seed=6)
        expected = _reference(g, PATTERNS["3CF"])
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2, retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2, retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=1, config=cfg, replicas=2, retry=FAST_RETRY,
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
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=1, config=cfg, transport="tcp", mode="thread",
            max_workers=1, replicas=2, retry=FAST_RETRY,
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


# -- flight-recorder incident dedupe (satellite) ------------------------------


class TestIncidentDedupe:
    def test_one_shard_failure_event_per_incident(self):
        g = erdos_renyi(50, 6.0, seed=7)
        cfg = xset_default(engine="batched")
        with LocalCluster(
            num_shards=2, config=cfg, retry=FAST_RETRY,
        ) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(g)
            cluster.kill_shard(1)
            for _ in range(3):
                report = coord.query(gid, PATTERNS["3CF"])
                assert report.notes["cluster"]["partial"] is True
            failures = [
                e for e in coord.flight.events("shard_failure")
                if e.data["shard"] == "shard1"
            ]
            assert len(failures) == 1  # one incident, one event
            # recovery closes the incident...
            cluster.revive_replica(1, 0)
            coord._breakers.for_engine("shard1").reset()
            report = coord.query(gid, PATTERNS["3CF"])
            assert report.notes["cluster"]["partial"] is False
            assert coord.flight.events("shard_recovered")
            # ...and the next incident records one fresh event
            cluster.kill_shard(1)
            coord.query(gid, PATTERNS["3CF"])
            failures = [
                e for e in coord.flight.events("shard_failure")
                if e.data["shard"] == "shard1"
            ]
            assert len(failures) == 2
