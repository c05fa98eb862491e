"""Adaptive scheduling tests: cost model and dispatch.

Covers the two pillars of the adaptive stack in isolation and then
end-to-end through the service (the one place a cost model lives):

- :class:`CostPredictor` tier fallback (profile → throughput → prior),
  conservative priors, and self-reported accuracy;
- the job queue's one dispatch rule (shortest-predicted-first, submit
  order on ties, anti-starvation aging bound).
"""

from __future__ import annotations

import pytest

from repro.graph.generators import erdos_renyi
from repro.patterns.pattern import PATTERNS
from repro.sched.adaptive import CostPredictor, analytic_work, query_features
from repro.sched.adaptive.predictor import DEFAULT_ENGINE_SPEED
from repro.service import QueryService, pattern_cache_key
from repro.service.job import Job, JobHandle
from repro.service.scheduler import AGE_LIMIT_SECONDS, JobQueue

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


def _job(seq, predicted=0.0, enqueued_at=0.0):
    handle = JobHandle(
        job_id=seq, graph_id="g", pattern_name=f"p{seq}",
        engine="batched", cancel_cb=lambda h: False,
    )
    return Job(
        handle=handle, graph_id="g", fingerprint="fp", plan=None,
        config=None, cache_key=None, seq=seq, predicted_seconds=predicted,
        enqueued_at=enqueued_at,
    )


class TestCostQueue:
    def test_shortest_predicted_first(self):
        q = JobQueue()
        heavy = _job(1, predicted=5.0)
        light = _job(2, predicted=0.01)
        q.push(heavy)
        q.push(light)
        assert q.pop(now=0.0) is light
        assert q.pop(now=0.0) is heavy

    def test_equal_predictions_degrade_to_fifo(self):
        q = JobQueue()
        first = _job(1, predicted=1.0)
        second = _job(2, predicted=1.0)
        q.push(second)
        q.push(first)
        assert q.pop(now=0.0) is first

    def test_aging_bound_prevents_starvation(self):
        q = JobQueue(age_limit=1.0)
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
        q = JobQueue(age_limit=10.0)
        heavy = _job(1, predicted=100.0, enqueued_at=0.0)
        light = _job(2, predicted=0.001, enqueued_at=0.5)
        q.push(heavy)
        q.push(light)
        assert q.pop(now=1.0) is light

    def test_a_requeued_job_does_not_block_older_starving_jobs(self):
        # a crash retry pushes a job again with a fresh enqueued_at; the
        # arrival entry of its first push must not come back as the
        # aging head, young-looking, and hide the jobs queued behind it
        q = JobQueue()
        retried = _job(1, predicted=0.01, enqueued_at=0.0)
        starving = _job(2, predicted=5.0, enqueued_at=0.1)
        q.push(retried)
        q.push(starving)
        assert q.pop(now=0.2) is retried
        retried.handle._set_running()
        retried.handle._requeue()  # what the service does on a crash
        retried.enqueued_at = 0.3
        q.push(retried)
        for i in range(5):
            q.push(_job(3 + i, predicted=0.001, enqueued_at=2.15))
        # 2.1 s in the queue against the 2.0 s bound
        assert q.pop(now=2.2) is starving
        assert q.pop(now=2.2).predicted_seconds == 0.001

    def test_unknown_policy_rejected(self):
        assert JobQueue().age_limit == AGE_LIMIT_SECONDS == 2.0
        JobQueue(256, policy="cost", age_limit=2.0)  # the e2e leaf probe
        for policy in ("fifo", "sjf"):
            with pytest.raises(ValueError, match="unknown queue policy"):
                JobQueue(policy=policy)


class TestServiceAdaptive:
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
