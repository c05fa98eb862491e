"""Adaptive scheduling tests: cost record and dispatch.

Covers the two pillars of the adaptive stack in isolation and then
end-to-end through the service (the one place a cost model lives):

- :class:`CostPredictor`, the record of each query shape's fastest clean
  run (``math.inf`` for a shape that has not run), and its self-reported
  accuracy;
- the job queue's one dispatch rule (shortest-predicted-first, submit
  order on ties, anti-starvation aging bound).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi
from repro.obs import MetricsRegistry
from repro.patterns.pattern import PATTERNS
from repro.sched.adaptive import CostPredictor, query_features
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
    def test_an_unrun_shape_is_priced_inf(self, features):
        # behind every measured job in the queue, and never light
        assert CostPredictor().predict(features, "codegen") == math.inf

    def test_observation_promotes_to_profile_tier(self, features):
        pred = CostPredictor()
        pred.observe(features, "codegen", 0.25)
        assert pred.predict(features, "codegen") == pytest.approx(0.25)

    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from(["3CF", "WEDGE"]), st.floats(1e-6, 10.0)
            ),
            min_size=1, max_size=12,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_price_is_order_invariant(self, graph, runs, data):
        # the same clean runs, fed in any order, price every shape alike:
        # its fastest run
        def shape(name):
            key = pattern_cache_key(PATTERNS[name], None)
            return query_features(graph, "fp-order", key)

        def priced(order):
            pred = CostPredictor()
            for name, seconds in order:
                pred.observe(shape(name), "codegen", seconds)
            return {
                name: pred.predict(shape(name), "codegen") for name, _ in runs
            }

        shuffled = data.draw(st.permutations(runs))
        assert priced(shuffled) == priced(runs)
        for name, price in priced(runs).items():
            assert price == min(s for n, s in runs if n == name)

    def test_other_shapes_stay_unpriced(self, graph, features):
        pred = CostPredictor()
        pred.observe(features, "codegen", 0.1)
        others = (
            # another pattern, another snapshot of the graph
            query_features(
                graph, "fp-adaptive", pattern_cache_key(PATTERNS["TT"], None)
            ),
            query_features(graph, "fp-other", features.pattern_key),
        )
        for other in others:
            assert pred.predict(other, "codegen") == math.inf
        # ...and the same shape on another engine
        assert pred.predict(features, "event") == math.inf

    def test_accuracy_window(self, features):
        pred = CostPredictor()
        pred.record_accuracy(predicted=1.0, actual=1.0)
        pred.record_accuracy(predicted=3.0, actual=1.0)
        acc = pred.accuracy()
        assert acc["count"] == 2
        assert acc["within_2x"] == pytest.approx(0.5)

    def test_snapshot_shape(self, features):
        pred = CostPredictor()
        pred.observe(features, "codegen", 0.1)
        pred.observe(features, "codegen", 0.2)
        pred.record_accuracy(0.1, 0.1)
        snap = pred.snapshot()
        assert snap["observations"] == 2
        assert snap["shapes"] == 1
        assert snap["within_2x"] == 1.0

    def test_error_ratio_histogram_is_registered(self, features):
        registry = MetricsRegistry()
        pred = CostPredictor(registry=registry)
        pred.record_accuracy(2.0, 1.0)
        text = registry.render_prometheus()
        assert "repro_predictor_error_ratio" in text


def _job(seq, predicted=0.0, enqueued_at=0.0):
    handle = JobHandle(
        job_id=seq, graph_id="g", pattern_name=f"p{seq}",
        engine="codegen", cancel_cb=lambda h: False,
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
        # a heavy job, and a shape that has not run (priced inf)
        for price in (100.0, math.inf):
            q = JobQueue(age_limit=1.0)
            heavy = _job(1, predicted=price, enqueued_at=0.0)
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
            for name in ("3CF", "WEDGE", "3CF"):
                svc.count(gid, PATTERNS[name], engine="codegen",
                          use_cache=False)
            snap = svc.stats().predictor
            summary = svc.stats().summary()
        assert snap["observations"] == 3
        assert snap["shapes"] == 2
        # a first run had no price to score: only 3CF's second run did
        assert snap["count"] == 1
        assert "predictor: 3 observed runs of 2 shapes, ratio" in summary

    def test_queue_wait_histogram_in_stats(self, graph):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"], engine="codegen")
            stats = svc.stats()
            metrics = svc.metrics.render_prometheus()
        assert stats.queue_wait["count"] == 1
        assert stats.queue_wait["p99"] >= 0.0
        assert "queue wait" in stats.summary()
        assert "repro_job_queue_wait_seconds" in metrics

    def test_queue_wait_counts_jobs_enqueued_at_time_zero(self, graph):
        # a clock that reads 0.0 stamps every job enqueued_at == 0.0; each
        # launched job still waited, for zero seconds
        with QueryService(mode="inline", clock=lambda: 0.0) as svc:
            gid = svc.register_graph(graph)
            svc.count(gid, PATTERNS["3CF"], engine="codegen")
            svc.count(gid, PATTERNS["WEDGE"], engine="codegen")
            wait = svc.stats().queue_wait
        assert wait["count"] == 2
        assert wait["p99"] == 0.0
