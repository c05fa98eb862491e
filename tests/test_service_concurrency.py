"""Concurrency edge cases, deterministically (no sleeps, no races).

Every timing decision in the service flows through an injectable clock
and sleep function, and the executor itself is injectable, so worker
crashes, deadlines, backpressure and cache invalidation are all driven
from a single thread here:

* worker-crash retry: a flaky executor fails the first N submissions with
  a crash-shaped error; the service retries with recorded backoffs.
* deadline: a paused service plus a hand-advanced clock expires queued
  jobs without ever running them.
* backpressure: a paused service with a tiny queue raises QueueFullError.
* invalidation: edge updates through ``dynamic_session`` purge (and
  delta-patch) cached results.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core.api import XSetAccelerator
from repro.errors import (
    JobCancelledError,
    JobTimeoutError,
    QueueFullError,
    WorkerCrashError,
)
from repro.patterns.pattern import PATTERNS
from repro.service import (
    InlineExecutor,
    Job,
    JobHandle,
    JobQueue,
    JobStatus,
    QueryService,
)


class FakeClock:
    """Hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingSleep:
    def __init__(self) -> None:
        self.calls: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)


class FlakyExecutor(InlineExecutor):
    """Fails the first ``failures`` submissions like a dying worker."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        if self.submissions <= self.failures:
            raise BrokenExecutor(
                f"worker died (injected failure #{self.submissions})"
            )
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def graph(small_er):
    return small_er


def make_service(graph, **kwargs):
    kwargs.setdefault("mode", "inline")
    svc = QueryService(**kwargs)
    gid = svc.register_graph(graph, graph_id="g")
    return svc, gid


class TestWorkerCrashRetry:
    def test_retries_until_success(self, graph):
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=2)
        svc, gid = make_service(graph, executor=executor, sleep=sleep)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        report = handle.result(timeout=60)
        assert report.embeddings == \
            XSetAccelerator(engine="batched").count(
                graph, PATTERNS["3CF"]).embeddings
        assert handle.attempts == 3
        assert svc.stats().retries == 2
        # exponential backoff: second retry waits twice the first
        assert len(sleep.calls) == 2
        assert sleep.calls[1] == pytest.approx(2 * sleep.calls[0])

    def test_retries_exhausted_fails_typed(self, graph):
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=100)
        svc, gid = make_service(graph, executor=executor, sleep=sleep)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        assert handle.status is JobStatus.FAILED
        with pytest.raises(WorkerCrashError, match="retries exhausted"):
            handle.result()
        stats = svc.stats()
        assert stats.failed == 1
        assert stats.retries == svc.retry.max_retries

    def test_pool_mode_backoff_never_sleeps_in_callback(self, graph):
        # pool modes run _on_done on the executor's completion thread;
        # sleeping there would stall every other in-flight completion, so
        # the backoff must be deferred through the queue instead
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=2)
        svc, gid = make_service(
            graph, mode="thread", executor=executor, sleep=sleep
        )
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        report = handle.result(timeout=60)
        assert report.embeddings == \
            XSetAccelerator(engine="batched").count(
                graph, PATTERNS["3CF"]).embeddings
        assert handle.attempts == 3
        assert svc.stats().retries == 2
        assert sleep.calls == []  # backoff waited out in the queue
        svc.shutdown()

    def test_queue_defers_job_until_not_before(self, graph):
        handle = JobHandle(
            job_id=1, graph_id="g", pattern_name="3CF",
            engine="batched", cancel_cb=lambda h: False,
        )
        job = Job(
            handle=handle, graph_id="g", fingerprint="fp", plan=None,
            config=None, cache_key=None, not_before=5.0,
        )
        queue = JobQueue(limit=4)
        queue.push(job)
        assert queue.pop(0.0) is None  # backoff pending: deferred ...
        assert queue.depth() == 1      # ... but still queued, not dropped
        assert queue.pop(10.0) is job  # runnable once the backoff elapsed
        assert queue.depth() == 0

    def test_shutdown_releases_job_parked_on_backoff(self, graph):
        handle = JobHandle(
            job_id=1, graph_id="g", pattern_name="3CF",
            engine="batched", cancel_cb=lambda h: False,
        )
        job = Job(
            handle=handle, graph_id="g", fingerprint="fp", plan=None,
            config=None, cache_key=None, not_before=1e9,
        )
        queue = JobQueue(limit=4)
        queue.push(job)
        drained = queue.drain()  # the shutdown path: ignores not_before
        assert drained == [job]
        assert queue.depth() == 0

    def test_deterministic_engine_error_not_retried(self, graph):
        calls = []

        class FailingExecutor(InlineExecutor):
            def submit(self, fn, /, *args, **kwargs):
                calls.append(1)
                from concurrent.futures import Future

                future = Future()
                future.set_exception(ValueError("engine bug"))
                return future

        sleep = RecordingSleep()
        svc, gid = make_service(
            graph, executor=FailingExecutor(), sleep=sleep
        )
        handle = svc.submit(gid, PATTERNS["3CF"])
        assert handle.status is JobStatus.FAILED
        with pytest.raises(ValueError, match="engine bug"):
            handle.result()
        assert len(calls) == 1  # no retry for non-crash failures
        assert sleep.calls == []


class TestDeadlines:
    def test_queued_job_expires_without_running(self, graph):
        clock = FakeClock()
        executor = InlineExecutor()
        svc, gid = make_service(
            graph, executor=executor, clock=clock, start_paused=True
        )
        handle = svc.submit(gid, PATTERNS["3CF"], timeout=5.0)
        assert handle.status is JobStatus.PENDING
        clock.advance(10.0)
        svc.resume()
        assert handle.status is JobStatus.TIMEOUT
        with pytest.raises(JobTimeoutError, match="deadline expired"):
            handle.result()
        assert svc.stats().timed_out == 1

    def test_job_within_deadline_runs(self, graph):
        clock = FakeClock()
        svc, gid = make_service(graph, clock=clock, start_paused=True)
        handle = svc.submit(
            gid, PATTERNS["3CF"], engine="batched", timeout=5.0
        )
        clock.advance(1.0)
        svc.resume()
        assert handle.result().embeddings >= 0

    def test_result_wait_timeout_is_independent(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        handle = svc.submit(gid, PATTERNS["3CF"])
        with pytest.raises(JobTimeoutError, match="not finished within"):
            handle.result(timeout=0.01)
        svc.shutdown()


class TestBackpressure:
    def test_queue_full_raises_typed_error(self, graph):
        svc, gid = make_service(graph, queue_limit=2, start_paused=True)
        svc.submit(gid, PATTERNS["3CF"])
        svc.submit(gid, PATTERNS["WEDGE"])
        with pytest.raises(QueueFullError, match="full"):
            svc.submit(gid, PATTERNS["P3"])
        assert svc.stats().queue_depth == 2
        svc.shutdown()

    def test_cancellation_frees_queue_space(self, graph):
        svc, gid = make_service(graph, queue_limit=2, start_paused=True)
        first = svc.submit(gid, PATTERNS["3CF"])
        svc.submit(gid, PATTERNS["WEDGE"])
        assert first.cancel()
        svc.submit(gid, PATTERNS["P3"])  # fits: the cancelled slot freed
        svc.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        handle = svc.submit(gid, PATTERNS["3CF"])
        assert handle.cancel() is True
        assert handle.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result()
        assert svc.stats().cancelled == 1
        svc.resume()  # must not dispatch the tombstoned job
        assert svc.stats().completed == 0
        svc.shutdown()

    def test_cancel_is_atomic_against_running_transition(self, graph):
        # a job that reached RUNNING between cancel()'s check and its
        # transition must NOT be marked cancelled under a live worker
        svc, gid = make_service(graph, start_paused=True)
        handle = svc.submit(gid, PATTERNS["3CF"])
        handle._set_running()  # simulate the dispatcher winning the race
        assert handle.cancel() is False
        assert handle.status is JobStatus.RUNNING
        assert svc.stats().cancelled == 0
        handle._finish(JobStatus.FAILED, error=RuntimeError("unwind"))
        svc.shutdown()

    def test_executor_cancelled_future_releases_waiters(self, graph):
        # a future the executor cancels must still finish the handle —
        # otherwise result() blocks forever on a job that will never run
        class CancellingExecutor(InlineExecutor):
            def submit(self, fn, /, *args, **kwargs):
                future = Future()
                future.cancel()
                return future

        svc, gid = make_service(graph, executor=CancellingExecutor())
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        assert handle.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result(timeout=5)
        assert svc.stats().cancelled == 1
        svc.shutdown()

    def test_cancel_finished_job_is_noop(self, graph):
        svc, gid = make_service(graph)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        handle.result()
        assert handle.cancel() is False
        svc.shutdown()

    def test_shutdown_cancels_queued_jobs(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        handle = svc.submit(gid, PATTERNS["3CF"])
        svc.shutdown()
        assert handle.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result()


class TestCacheInvalidation:
    def test_dynamic_update_invalidates(self, graph):
        svc, gid = make_service(graph)
        before = svc.count(gid, PATTERNS["3CF"], engine="batched")
        session = svc.dynamic_session(
            gid, PATTERNS["3CF"], delta_patch=False
        )
        u, v = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        delta = session.insert_edge(u, v)
        assert svc.stats().cache_invalidations >= 1
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        after = handle.result()
        assert not handle.from_cache
        assert after.embeddings == before.embeddings + delta
        # cross-check against a fresh count on the updated snapshot
        fresh = XSetAccelerator(engine="batched").count(
            session.snapshot(), PATTERNS["3CF"]
        )
        assert after.embeddings == fresh.embeddings
        svc.shutdown()

    def test_dynamic_update_delta_patches(self, graph):
        svc, gid = make_service(graph)
        before = svc.count(gid, PATTERNS["3CF"], engine="batched")
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        u, v = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        delta = session.insert_edge(u, v)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        patched = handle.result()
        assert handle.from_cache  # served without re-running the engine
        assert patched.embeddings == before.embeddings + delta
        # removal patches back down
        session.remove_edge(u, v)
        handle2 = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        assert handle2.result().embeddings == before.embeddings
        assert handle2.from_cache
        svc.shutdown()

    def test_update_graph_invalidates(self, graph, medium_er):
        svc, gid = make_service(graph)
        svc.count(gid, PATTERNS["3CF"], engine="batched")
        dropped = svc.update_graph(gid, medium_er)
        assert dropped == 1
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        report = handle.result()
        assert not handle.from_cache
        assert report.embeddings == XSetAccelerator(engine="batched").count(
            medium_er, PATTERNS["3CF"]
        ).embeddings
        svc.shutdown()

    def test_explicit_invalidate(self, graph):
        svc, gid = make_service(graph)
        svc.count(gid, PATTERNS["3CF"], engine="batched")
        assert svc.invalidate_graph(gid) == 1
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        handle.result()
        assert not handle.from_cache
        svc.shutdown()


class TestDispatcherWakeup:
    def test_job_pushed_after_an_empty_pop_is_not_slept_on(self, graph):
        # pushers enqueue and then notify; a push landing between the
        # dispatcher's empty pop and its wait used to be slept on for the
        # full poll interval.  Interpose on pop: the instant it comes back
        # empty, submit a job (its notify finds no waiter), and require the
        # dispatcher to find that job without entering Condition.wait.
        svc, gid = make_service(graph, mode="thread", max_workers=2)
        real_pop, real_wait = svc._queue.pop, svc._cond.wait
        late: list[JobHandle] = []
        injected = threading.Event()
        slept_on: list[JobStatus] = []

        def pop(now):
            job = real_pop(now)
            if job is None and not late:
                late.append(svc.submit(gid, PATTERNS["DIA"], engine="batched"))
                injected.set()
            return job

        def wait(timeout=None):
            if late and threading.current_thread() is svc._dispatcher:
                slept_on.append(late[0].status)
            return real_wait(timeout)

        svc._queue.pop, svc._cond.wait = pop, wait
        svc.submit(gid, PATTERNS["3CF"], engine="batched").result(timeout=60)
        assert injected.wait(timeout=60)  # the next pop is the empty one
        late[0].result(timeout=60)
        assert JobStatus.PENDING not in slept_on
        svc.shutdown()


class TestPerSubmitConstants:
    def test_submits_of_one_pattern_share_plan_and_config_key(self, graph):
        # build_plan and SystemConfig.cache_key are pure functions of
        # immutable arguments: submit derives neither twice
        svc, gid = make_service(graph, start_paused=True)
        same = dataclasses.replace(PATTERNS["DIA"])  # equal, not identical
        for pattern in (PATTERNS["DIA"], same, PATTERNS["3CF"]):
            svc.submit(gid, pattern)
        dia, dia2, tri = (
            job for _, _, job in sorted(svc._queue._heap, key=lambda e: e[1])
        )
        assert dia.plan is dia2.plan and dia.plan is not tri.plan
        assert dia.cache_key.config_key is svc.config.cache_key()
        assert dia2.cache_key.config_key is tri.cache_key.config_key
        svc.shutdown()
