"""Adaptive scheduling tests: cost model, auto-selection, dispatch, admission.

Covers the four pillars of the adaptive stack in isolation and then
end-to-end through the service and the cluster coordinator:

- :class:`CostPredictor` tier fallback (profile → throughput → prior),
  conservative priors, and self-reported accuracy;
- ``engine="auto"`` selection, including breaker composition;
- the job queue's cost policy (shortest-predicted-first, FIFO tie-break,
  anti-starvation aging bound) and its predicted-backlog view;
- deadline-aware admission control and its typed rejection.
"""

from __future__ import annotations

import pytest

from repro.core.api import XSetAccelerator
from repro.errors import AdmissionError
from repro.graph.generators import erdos_renyi
from repro.patterns.pattern import PATTERNS
from repro.sched.adaptive import (
    AdmissionPolicy,
    CostPredictor,
    SchedulingConfig,
    analytic_work,
    auto_engine,
    query_features,
    select_engine,
)
from repro.sched.adaptive.predictor import DEFAULT_ENGINE_SPEED
from repro.service import QueryService, pattern_cache_key
from repro.service.job import Job, JobHandle, JobStatus
from repro.service.scheduler import JobQueue

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 6.0, seed=3, name="adaptive-er60")


@pytest.fixture(scope="module")
def features(graph):
    key = pattern_cache_key(PATTERNS["3CF"], None)
    return query_features(graph, "fp-adaptive", key)


class TestCostPredictor:
    def test_unseen_shape_uses_conservative_prior(self, features):
        pred = CostPredictor()
        est = pred.predict(features, "batched")
        assert est.source == "prior" and est.engine == "batched"
        # the margin makes the prior *over*-estimate: at least margin x
        # the raw work/speed projection
        raw = analytic_work(features) / DEFAULT_ENGINE_SPEED["batched"]
        assert est.seconds == pytest.approx(raw * pred.prior_margin)

    def test_prior_respects_engine_ranking(self, features):
        pred = CostPredictor()
        secs = {
            e: pred.predict(features, e).seconds
            for e in ("codegen", "batched", "event")
        }
        assert secs["codegen"] < secs["batched"] < secs["event"]

    def test_observation_promotes_to_profile_tier(self, features):
        pred = CostPredictor()
        pred.observe(features, "batched", 0.25)
        est = pred.predict(features, "batched")
        assert est.source == "profile"
        assert est.seconds == pytest.approx(0.25)

    def test_profile_tier_is_an_ewma(self, features):
        pred = CostPredictor(alpha=0.5)
        pred.observe(features, "batched", 1.0)
        pred.observe(features, "batched", 2.0)
        assert pred.predict(features, "batched").seconds == \
            pytest.approx(1.5)

    def test_other_shape_falls_to_throughput_tier(self, graph, features):
        pred = CostPredictor()
        pred.observe(features, "batched", 0.1)
        other = query_features(
            graph, "fp-adaptive", pattern_cache_key(PATTERNS["TT"], None)
        )
        est = pred.predict(other, "batched")
        assert est.source == "throughput"
        # the learned throughput tier scales with the work proxy
        assert est.seconds > 0.0
        # ...but only for the observed engine; others stay on the prior
        assert pred.predict(other, "event").source == "prior"

    def test_accuracy_window(self, features):
        pred = CostPredictor()
        pred.record_accuracy(predicted=1.0, actual=1.0)
        pred.record_accuracy(predicted=3.0, actual=1.0)
        acc = pred.accuracy()
        assert acc["count"] == 2
        assert acc["within_2x"] == pytest.approx(0.5)

    def test_snapshot_shape(self, features):
        pred = CostPredictor()
        pred.observe(features, "batched", 0.1)
        pred.record_accuracy(0.1, 0.1)
        snap = pred.snapshot()
        assert snap["observations"] == 1
        assert snap["profiled_shapes"] == 1
        assert "batched" in snap["throughput_units_per_s"]
        assert snap["within_2x"] == 1.0

    def test_error_ratio_histogram_is_registered(self, features):
        pred = CostPredictor()
        pred.record_accuracy(2.0, 1.0)
        text = pred.registry.render_prometheus()
        assert "repro_predictor_error_ratio" in text

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            CostPredictor(alpha=0.0)
        with pytest.raises(ValueError, match="prior_margin"):
            CostPredictor(prior_margin=0.5)


class TestEngineSelection:
    def test_untrained_predictor_prefers_codegen(self, features):
        est = select_engine(CostPredictor(), features)
        assert est.engine == "codegen"

    def test_profile_data_overrides_static_preference(self, features):
        pred = CostPredictor()
        pred.observe(features, "event", 1e-6)     # implausibly fast
        pred.observe(features, "codegen", 10.0)   # implausibly slow
        pred.observe(features, "batched", 10.0)
        assert select_engine(pred, features).engine == "event"

    def test_breaker_gate_excludes_engines(self, features):
        est = select_engine(
            CostPredictor(), features, allow=lambda e: e != "codegen"
        )
        assert est.engine == "batched"

    def test_all_breakers_open_still_selects(self, features):
        # advisory-breaker semantics: a fully-tripped board must not
        # leave the service with no engine at all
        est = select_engine(
            CostPredictor(), features, allow=lambda e: False
        )
        assert est.engine == "codegen"

    def test_static_auto_engine(self):
        assert auto_engine() == "codegen"
        assert auto_engine(candidates=("event",)) == "event"
        assert auto_engine(candidates=("event", "batched")) == "batched"
        with pytest.raises(ValueError, match="no execution engines"):
            auto_engine(candidates=())


def _job(seq, predicted=0.0, priority=0, enqueued_at=0.0, deadline=None):
    handle = JobHandle(
        job_id=seq, graph_id="g", pattern_name=f"p{seq}",
        engine="batched", cancel_cb=lambda h: False,
    )
    return Job(
        handle=handle, graph_id="g", fingerprint="fp", plan=None,
        config=None, cache_key=None, priority=priority, seq=seq,
        deadline=deadline, predicted_seconds=predicted,
        enqueued_at=enqueued_at,
    )


class TestCostQueue:
    def test_shortest_predicted_first(self):
        q = JobQueue(policy="cost")
        heavy = _job(1, predicted=5.0)
        light = _job(2, predicted=0.01)
        q.push(heavy)
        q.push(light)
        assert q.pop(now=0.0) is light
        assert q.pop(now=0.0) is heavy

    def test_equal_predictions_degrade_to_fifo(self):
        q = JobQueue(policy="cost")
        first = _job(1, predicted=1.0)
        second = _job(2, predicted=1.0)
        q.push(second)
        q.push(first)
        assert q.pop(now=0.0) is first

    def test_priority_class_dominates_cost(self):
        q = JobQueue(policy="cost")
        cheap_background = _job(1, predicted=0.01, priority=5)
        heavy_interactive = _job(2, predicted=9.0, priority=0)
        q.push(cheap_background)
        q.push(heavy_interactive)
        assert q.pop(now=0.0) is heavy_interactive

    def test_aging_bound_prevents_starvation(self):
        q = JobQueue(policy="cost", age_limit=1.0)
        heavy = _job(1, predicted=100.0, enqueued_at=0.0)
        q.push(heavy)
        fresh = [_job(2 + i, predicted=0.001, enqueued_at=5.0)
                 for i in range(3)]
        for job in fresh:
            q.push(job)
        # past the aging bound the heavy job outranks cheaper newcomers
        assert q.pop(now=5.0) is heavy
        assert q.pop(now=5.0) is fresh[0]

    def test_young_heavy_job_waits(self):
        q = JobQueue(policy="cost", age_limit=10.0)
        heavy = _job(1, predicted=100.0, enqueued_at=0.0)
        light = _job(2, predicted=0.001, enqueued_at=0.5)
        q.push(heavy)
        q.push(light)
        assert q.pop(now=1.0) is light

    def test_starving_job_with_expired_deadline_times_out(self):
        reaped = []
        q = JobQueue(on_timeout=reaped.append, policy="cost", age_limit=1.0)
        doomed = _job(1, predicted=100.0, enqueued_at=0.0, deadline=2.0)
        light = _job(2, predicted=0.001, enqueued_at=5.0)
        q.push(doomed)
        q.push(light)
        assert q.pop(now=5.0) is light
        assert doomed.handle.status is JobStatus.TIMEOUT
        assert reaped == [doomed]

    def test_predicted_backlog_sums_live_jobs(self):
        q = JobQueue(policy="cost")
        q.push(_job(1, predicted=2.0))
        q.push(_job(2, predicted=0.5))
        cancelled = _job(3, predicted=7.0)
        q.push(cancelled)
        cancelled.handle._finish(JobStatus.CANCELLED)
        assert q.predicted_backlog() == pytest.approx(2.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown queue policy"):
            JobQueue(policy="sjf")


class TestAdmissionPolicy:
    def test_disabled_policy_admits_everything(self):
        policy = AdmissionPolicy(enabled=False)
        projected = policy.check(
            timeout=0.001, predicted_seconds=100.0,
            backlog_seconds=1000.0, workers=1,
        )
        assert projected > 0.001  # projection computed, rejection skipped

    def test_projection_math(self):
        policy = AdmissionPolicy(enabled=True, safety_factor=2.0)
        projected = policy.projected_completion(
            predicted_seconds=1.0, backlog_seconds=8.0, workers=4,
        )
        assert projected == pytest.approx(8.0 / 4 + 1.0 * 2.0)

    def test_unmeetable_deadline_raises_typed_error(self):
        policy = AdmissionPolicy(enabled=True)
        with pytest.raises(AdmissionError, match="cannot meet"):
            policy.check(
                timeout=0.5, predicted_seconds=10.0,
                backlog_seconds=0.0, workers=1, describe="'TT' on 'g'",
            )

    def test_meetable_deadline_admitted(self):
        policy = AdmissionPolicy(enabled=True)
        assert policy.check(
            timeout=60.0, predicted_seconds=1.0,
            backlog_seconds=2.0, workers=2,
        ) < 60.0

    def test_min_deadline_carve_out(self):
        policy = AdmissionPolicy(enabled=True, min_deadline_seconds=1.0)
        # sub-threshold deadlines are allowed to try even when doomed
        policy.check(
            timeout=0.5, predicted_seconds=10.0,
            backlog_seconds=0.0, workers=1,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="safety_factor"):
            AdmissionPolicy(safety_factor=0.0)
        with pytest.raises(ValueError, match="min_deadline_seconds"):
            AdmissionPolicy(min_deadline_seconds=-1.0)

    def test_admission_error_is_service_error(self):
        from repro.errors import ServiceError

        assert issubclass(AdmissionError, ServiceError)


class TestSchedulingConfig:
    def test_defaults(self):
        cfg = SchedulingConfig()
        assert cfg.policy == "cost"
        assert cfg.age_limit_seconds == 2.0
        assert not cfg.admission.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown queue policy"):
            SchedulingConfig(policy="lifo")
        with pytest.raises(ValueError, match="age_limit_seconds"):
            SchedulingConfig(age_limit_seconds=0.0)


class TestServiceAdaptive:
    def test_auto_engine_counts_match_batched(self, graph):
        expected = XSetAccelerator(engine="batched").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            handle = svc.submit(gid, PATTERNS["3CF"], engine="auto")
            report = handle.result(timeout=60)
            # the sentinel never leaks: the handle carries the resolved
            # backend and the count is byte-identical to batched
            assert handle.engine in ("codegen", "batched", "event")
            assert report.embeddings == expected
            stats = svc.stats()
        assert stats.auto_selected.get(handle.engine) == 1
        assert "auto-selected" in stats.summary()
        # the library facade resolves the same sentinel without a service
        assert XSetAccelerator().count(
            graph, PATTERNS["3CF"], engine="auto"
        ).embeddings == expected

    def test_completed_jobs_train_the_predictor(self, graph):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"], engine="batched")
            svc.count(gid, PATTERNS["WEDGE"], engine="batched")
            snap = svc.stats().predictor
        assert snap["observations"] == 2
        assert snap["profiled_shapes"] == 2
        assert snap["count"] == 2  # accuracy samples recorded too

    def test_queue_wait_histogram_in_stats(self, graph):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"], engine="batched")
            stats = svc.stats()
            metrics = svc.metrics.render_prometheus()
        assert stats.queue_wait["count"] == 1
        assert stats.queue_wait["p99"] >= 0.0
        assert "queue wait" in stats.summary()
        assert "repro_job_queue_wait_seconds" in metrics

    def test_admission_rejects_doomed_deadline(self, graph):
        scheduling = SchedulingConfig(
            admission=AdmissionPolicy(enabled=True)
        )
        with QueryService(
            mode="thread", max_workers=1, start_paused=True,
            scheduling=scheduling,
        ) as svc:
            gid = svc.register_graph(graph)
            # build predicted backlog: profile the shape, then queue it
            svc.resume()
            svc.count(gid, PATTERNS["TT"], engine="batched",
                      use_cache=False)
            svc.pause()
            backlog = [
                svc.submit(gid, PATTERNS["TT"], engine="batched",
                           use_cache=False)
                for _ in range(3)
            ]
            with pytest.raises(AdmissionError):
                svc.submit(gid, PATTERNS["WEDGE"], engine="batched",
                           use_cache=False, timeout=1e-7)
            # no deadline → always admitted, regardless of backlog
            ok = svc.submit(gid, PATTERNS["WEDGE"], engine="batched",
                            use_cache=False)
            svc.resume()
            for handle in backlog:
                handle.result(timeout=120)
            ok.result(timeout=120)
            stats = svc.stats()
        assert stats.rejected == 1
        assert "1 admission-rejected" in stats.summary()

    def test_rejection_does_not_consume_queue_space(self, graph):
        scheduling = SchedulingConfig(
            admission=AdmissionPolicy(enabled=True)
        )
        with QueryService(
            mode="thread", max_workers=1, start_paused=True,
            scheduling=scheduling,
        ) as svc:
            gid = svc.register_graph(graph)
            svc.resume()
            svc.count(gid, PATTERNS["TT"], engine="batched",
                      use_cache=False)
            svc.pause()
            svc.submit(gid, PATTERNS["TT"], engine="batched",
                       use_cache=False)
            depth = svc.stats().queue_depth
            with pytest.raises(AdmissionError):
                svc.submit(gid, PATTERNS["TT"], engine="batched",
                           use_cache=False, timeout=1e-7)
            assert svc.stats().queue_depth == depth
            svc.resume()


class TestCoordinatorPredictions:
    def test_scatter_carries_predictions_and_trains(self, graph):
        from repro.cluster import LocalCluster

        expected = XSetAccelerator().count(
            graph, PATTERNS["3CF"]
        ).embeddings
        with LocalCluster(num_shards=2) as cluster:
            coord = cluster.coordinator
            gid = coord.register_graph(graph)
            report = coord.query(gid, PATTERNS["3CF"], use_cache=False)
            notes = report.notes["cluster"]
            assert report.embeddings == expected
            assert set(notes["predicted_seconds"]) == \
                {"shard0", "shard1"}
            assert all(
                v >= 0.0 for v in notes["predicted_seconds"].values()
            )
            # per-shard elapsed times fed the coordinator's model
            snap = coord.predictor_snapshot()
            assert snap["observations"] == 2
            # a repeat query now predicts from the profile tier
            coord.query(gid, PATTERNS["3CF"], use_cache=False)
            assert coord.predictor_snapshot()["observations"] == 4
