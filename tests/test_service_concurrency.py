"""Concurrency edge cases, deterministically (no sleeps, no races).

Every timing decision in the service flows through an injectable clock
and sleep function, and the executor itself is injectable, so worker
crashes, backpressure and cache invalidation are all driven from a
single thread here:

* worker-crash retry: a flaky executor fails the first N submissions with
  a crash-shaped error; the service retries with recorded backoffs.
* wait bound: ``result(timeout=)`` gives up on the caller's wait, not on
  the job.
* backpressure: a paused service with a tiny queue raises QueueFullError.
* invalidation: edge updates through ``dynamic_session`` purge (and
  delta-patch) cached results.
* lifecycle: a hypothesis state machine interleaves all of the above and
  checks, after every step, that every job is counted exactly once and
  that each count agrees with its metric series.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import BrokenExecutor, Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.api import XSetAccelerator
from repro.errors import (
    JobCancelledError,
    JobTimeoutError,
    QueueFullError,
    WorkerCrashError,
)
from repro.graph import erdos_renyi
from repro.patterns.executor import count_embeddings
from repro.patterns.pattern import PATTERNS
from repro.service import (
    InlineExecutor,
    Job,
    JobHandle,
    JobQueue,
    JobStatus,
    QueryService,
)
from repro.service import service as service_module
from repro.sim.report import SimReport


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
        assert stats.retries == service_module.MAX_RETRIES

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
    """A job has no deadline; the one left is the caller's wait."""

    def test_result_wait_timeout_is_independent(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        handle = svc.submit(gid, PATTERNS["3CF"])
        with pytest.raises(JobTimeoutError, match="not finished within"):
            handle.result(timeout=0.01)
        svc.shutdown()


def queued_jobs():
    """A factory of bare queued :class:`Job` records, numbered from 0."""
    seq = iter(range(100))

    def job(predicted, enqueued_at=0.0):
        i = next(seq)
        handle = JobHandle(
            job_id=i, graph_id="g", pattern_name="3CF",
            engine="batched", cancel_cb=lambda h: False,
        )
        return Job(
            handle=handle, graph_id="g", fingerprint="fp", plan=None,
            config=None, cache_key=None, seq=i,
            predicted_seconds=predicted, enqueued_at=enqueued_at,
        )

    return job


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

    def test_queue_never_holds_more_than_its_limit(self):
        """Neither a cancel nor a take through the aging path may make room
        for more pending jobs than ``limit``, nor leave less."""
        job = queued_jobs()

        def fill(queue):
            while True:
                try:
                    queue.push(job(9.0))
                except QueueFullError:
                    return queue.depth()

        # two cancels: depth() (every stats()/health() asks it) and the
        # next pop see neither
        queue = JobQueue(limit=4)
        jobs = [job(0.1 * i) for i in range(4)]
        for j in jobs:
            queue.push(j)
        for j in jobs[:2]:
            assert queue.remove(j.handle) is j
        assert queue.remove(jobs[0].handle) is None  # once only
        assert queue.depth() == 2
        assert queue.pop(0.0) is jobs[2]
        assert fill(queue) == 4

        # a starving job handed out through the aging path
        queue = JobQueue(limit=2, age_limit=1.0)
        old, new = job(5.0, enqueued_at=0.0), job(0.1, enqueued_at=9.5)
        queue.push(old)
        queue.push(new)
        assert queue.pop(10.0) is old
        assert queue.depth() == 1
        assert queue.pop(10.0) is new
        assert fill(queue) == 2
        assert queue.pop(10.0).predicted_seconds == 9.0  # steps over old
        assert fill(queue) == 2

    def test_a_requeue_after_an_aged_take_is_queued_once(self):
        """A job handed out through the aging path leaves its heap entry
        behind.  When the job crashes and is pushed again, that entry
        must stay dead: revived, it is a second pending copy that
        ``depth()`` counts and that fills the queue early."""
        job = queued_jobs()
        queue = JobQueue(limit=3, age_limit=1.0)
        heavy, cheap = job(5.0, enqueued_at=0.0), job(0.1, enqueued_at=9.5)
        queue.push(heavy)
        queue.push(cheap)
        assert queue.pop(10.0) is heavy  # starving: jumps the cheap job
        heavy.handle._set_running()
        # the crash retry: back to pending, queued again
        heavy.handle._requeue()
        heavy.enqueued_at = 10.0
        queue.push(heavy)
        assert queue.depth() == 2
        third = job(0.2, enqueued_at=10.0)
        queue.push(third)  # two pending jobs leave room in a queue of 3
        assert queue.depth() == 3
        taken = [queue.pop(10.0) for _ in range(4)]
        assert taken == [cheap, third, heavy, None]


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
        # whoever takes a job out of the queue first owns it: a job the
        # dispatcher popped cannot be cancelled and still runs, and a
        # queued job is cancelled exactly once and never dispatched
        refused = []

        class CancellingExecutor(InlineExecutor):
            def submit(self, fn, /, *args, **kwargs):
                refused.append(popped.cancel())  # popped, not yet run
                return super().submit(fn, *args, **kwargs)

        svc, gid = make_service(
            graph, start_paused=True, executor=CancellingExecutor()
        )
        popped = svc.submit(gid, PATTERNS["3CF"], engine="batched")
        queued = svc.submit(gid, PATTERNS["WEDGE"], engine="batched")
        assert queued.cancel() is True
        assert queued.cancel() is False
        svc.resume()
        assert popped.result(timeout=60).embeddings == \
            XSetAccelerator(engine="batched").count(
                graph, PATTERNS["3CF"]).embeddings
        assert refused == [False]  # one dispatch: the cancelled job's none
        assert queued.status is JobStatus.CANCELLED
        stats = svc.stats()
        assert (stats.cancelled, stats.completed) == (1, 1)
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

    def test_dynamic_session_keeps_labels(self, graph):
        # at f87bc3f the first write re-registered an unlabelled snapshot
        # (name "dynamic", default base_address) under the caller's id
        labels = np.arange(graph.num_vertices) % 2
        labelled = graph.with_labels(labels)
        labelled.base_address = 0x5000_0000
        pattern = PATTERNS["3CF"].with_labels([0, 0, 1])
        svc, gid = make_service(labelled)
        session = svc.dynamic_session(gid, pattern)
        for u, v in [(0, 1), (2, 3), (0, 1), (4, 9)]:
            if session.has_edge(u, v):
                session.remove_edge(u, v)
            else:
                session.insert_edge(u, v)
            snap = session.snapshot()
            assert np.array_equal(snap.labels, labels)
            assert (snap.name, snap.base_address) == ("er30", 0x5000_0000)
            truth = count_embeddings(snap, session.plan).embeddings
            assert session.count == truth
            # an uncached run and the delta-patched entry agree with it
            for use_cache in (False, True):
                served = svc.submit(
                    gid, pattern, engine="batched", use_cache=use_cache
                ).result()
                assert served.embeddings == truth
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

        def pop(now, fits=None):
            job = real_pop(now, fits)
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
        # the queue's entries, in push order
        entries = sorted(svc._queue._entries, key=lambda entry: entry[1])
        dia, dia2, tri = (job for _, _, job in entries)
        assert dia.plan is dia2.plan and dia.plan is not tri.plan
        assert dia.cache_key.config_key is svc.config.cache_key()
        assert dia2.cache_key.config_key is tri.cache_key.config_key
        svc.shutdown()


# ---------------------------------------------------------------------------
# the job lifecycle as a state machine
# ---------------------------------------------------------------------------


class ScriptedExecutor(InlineExecutor):
    """Answers every job with a canned report — unless told otherwise.

    ``crashes`` makes the next that-many submissions die like a broken
    pool; ``hangs`` makes them never complete (the futures are kept in
    ``hung``); ``before_crash`` runs once inside the next crashing call,
    which is where a client racing a retry gets to fill the queue.
    """

    def __init__(self) -> None:
        self.crashes = 0
        self.hangs = 0
        self.before_crash = None
        self.hung: list[Future] = []

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        if self.crashes:
            self.crashes -= 1
            hook, self.before_crash = self.before_crash, None
            if hook is not None:
                hook()
            raise BrokenExecutor("worker died (scripted)")
        if self.hangs:
            self.hangs -= 1
            self.hung.append(future)
        else:
            future.set_result(SimReport(embeddings=7))
        return future


class JobLifecycle(RuleBasedStateMachine):
    """Random walks over submit / cancel / crash / hang / pause / clock.

    The service is inline with an injected clock, sleep and executor, so
    every walk is single-threaded and replays exactly.  After every step
    each accepted job must be in exactly one place (a terminal count, the
    queue, or a worker), every ``stats()`` count must equal its metric
    series, and every FAILED handle must carry the error it failed with;
    after shutdown no handle may be left waiting.
    """

    graph = erdos_renyi(30, 8.0, seed=11, name="er30")

    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.executor = ScriptedExecutor()
        self.svc = QueryService(
            mode="inline",
            queue_limit=3,
            clock=self.clock,
            sleep=RecordingSleep(),
            executor=self.executor,
        )
        self.gid = self.svc.register_graph(self.graph, graph_id="g")
        self.handles: list[JobHandle] = []

    def _submit(self, **kwargs) -> None:
        try:
            self.handles.append(self.svc.submit(
                self.gid, engine="batched", **kwargs
            ))
        except QueueFullError:  # the one refusal: counted nowhere else
            pass

    @rule(
        pattern=st.sampled_from(["3CF", "WEDGE", "DIA"]),
        use_cache=st.booleans(),
    )
    def submit(self, pattern, use_cache):
        self._submit(pattern=PATTERNS[pattern], use_cache=use_cache)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        data.draw(st.sampled_from(self.handles)).cancel()

    @rule(seconds=st.sampled_from([1.0, 60.0]))
    def advance_clock(self, seconds):
        self.clock.advance(seconds)

    @rule(n=st.integers(1, 4))
    def crash_next_submits(self, n):
        self.executor.crashes = n

    @rule()
    def submit_to_a_worker_that_hangs(self):
        self.executor.hangs = 1
        self._submit(pattern=PATTERNS["CYC"], use_cache=False)

    @rule()
    def crash_while_a_client_fills_the_queue(self):
        # the next dispatch dies, and before its retry is pushed back a
        # client (here: from inside the dying call) takes every queue slot
        def fill():
            self.svc.pause()
            for _ in range(self.svc._queue.limit):
                self._submit(pattern=PATTERNS["TT"], use_cache=False)

        self.executor.crashes = 1
        self.executor.before_crash = fill
        self._submit(pattern=PATTERNS["TT"], use_cache=False)

    @rule()
    def pause(self):
        self.svc.pause()

    @rule()
    def resume(self):
        self.svc.resume()

    @precondition(lambda self: self.executor.hung)
    @rule()
    def hung_worker_answers(self):
        self.executor.hung.pop(0).set_result(SimReport(embeddings=7))

    @invariant()
    def every_job_is_in_exactly_one_place(self):
        s = self.svc.stats()
        assert s.submitted == len(self.handles)
        assert s.submitted == (
            s.completed + s.failed + s.cancelled
            + s.queue_depth + s.in_flight
        ), s.summary()

    @invariant()
    def every_count_equals_its_series(self):
        s = self.svc.stats()
        series = {
            "submitted": "repro_jobs_submitted_total",
            "failed": "repro_jobs_failed_total",
            "cancelled": "repro_jobs_cancelled_total",
            "retries": "repro_job_retries_total",
        }
        for field, name in series.items():
            assert getattr(s, field) == s.metrics.get(name, 0), field
        # worker completions and cache hits are both completed jobs
        assert s.completed == (
            s.metrics.get("repro_jobs_completed_total", 0)
            + s.metrics.get("repro_cache_hits_total", 0)
        )

    @invariant()
    def every_failure_carries_its_error(self):
        for handle in self.handles:
            if handle.status is JobStatus.FAILED:
                assert handle.exception() is not None, handle

    def teardown(self):
        while self.executor.hung:
            self.hung_worker_answers()
        self.svc.shutdown()
        for handle in self.handles:
            assert handle.status.terminal, handle  # never a hung waiter
        self.every_job_is_in_exactly_one_place()
        self.every_count_equals_its_series()


TestJobLifecycle = JobLifecycle.TestCase
TestJobLifecycle.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    derandomize=True,
)


class TestCountsAgreeWithSeries:
    """The three disagreements the walk above turned up, one case each."""

    def test_refused_submission_is_not_counted_as_submitted(self, graph):
        svc, gid = make_service(graph, queue_limit=1, start_paused=True)
        svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        with pytest.raises(QueueFullError):
            svc.submit(gid, PATTERNS["WEDGE"], use_cache=False)
        stats = svc.stats()
        assert stats.submitted == 1 and stats.queue_depth == 1
        assert stats.metrics["repro_jobs_submitted_total"] == 1
        svc.shutdown()

    def test_requeue_into_a_full_queue_fails_like_any_failure(self):
        walk = JobLifecycle()
        walk.crash_while_a_client_fills_the_queue()
        (failed,) = [
            h for h in walk.handles if h.status is JobStatus.FAILED
        ]
        with pytest.raises(QueueFullError):
            failed.result()
        stats = walk.svc.stats()
        assert stats.failed == 1 and stats.retries == 1
        assert stats.metrics["repro_jobs_failed_total"] == 1
        assert isinstance(failed.exception(), QueueFullError)
        walk.teardown()

    def test_cancelled_jobs_have_a_series(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        assert svc.submit(gid, PATTERNS["3CF"]).cancel()
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.metrics["repro_jobs_cancelled_total"] == 1
        svc.shutdown()


# ---------------------------------------------------------------------------
# the queue against a reference model, and cancels racing a live dispatcher
# ---------------------------------------------------------------------------


class ReferenceQueue:
    """The dispatch rule as plainly as it can be said: jobs in push order;
    the earliest-pushed goes once it has waited ``age_limit`` unless it is
    on backoff, else the cheapest not on backoff; a refused job stays."""

    def __init__(self, limit: int, age_limit: float) -> None:
        self.limit, self.age_limit, self.jobs = limit, age_limit, []

    def push(self, job: Job) -> None:
        if len(self.jobs) >= self.limit:
            raise QueueFullError("full")
        self.jobs.append(job)

    def pop(self, now, fits=None):
        def parked(job):
            return job.not_before is not None and now < job.not_before

        runnable = [job for job in self.jobs if not parked(job)]
        if not runnable:
            return None
        head = self.jobs[0]
        if now - head.enqueued_at < self.age_limit or parked(head):
            head = min(runnable, key=Job.cost_key)
        if fits is not None and not fits(head):
            return None
        return self.remove(head.handle)

    def remove(self, handle):
        for i, job in enumerate(self.jobs):
            if job.handle is handle:
                return self.jobs.pop(i)
        return None


queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.1, 0.5, 0.5, 3.0]),  # cost, with ties
            st.sampled_from([None, 0.0, 1.5, 4.0]),  # backoff, if any
        ),
        st.tuples(st.just("pop"), st.sampled_from([None, 0, 1, 2])),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("requeue"), st.integers(0, 40)),
        st.tuples(st.just("tick"), st.sampled_from([0.5, 1.0, 2.5])),
        st.tuples(st.just("drain")),
    ),
    min_size=20,
    max_size=80,
)


class TestQueueAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=queue_ops)
    def test_every_result_and_depth_match_the_reference(self, ops):
        queue, ref = JobQueue(limit=5, age_limit=2.0), ReferenceQueue(5, 2.0)
        now, jobs, running = 0.0, [], []

        def both(call, *args):
            outcomes = []
            for q in (queue, ref):
                try:
                    outcomes.append(getattr(q, call)(*args))
                except QueueFullError:
                    outcomes.append(QueueFullError)
            assert outcomes[0] is outcomes[1], (call, args)
            return outcomes[0]

        for op, *args in ops:
            if op == "push":
                cost, backoff = args
                handle = JobHandle(
                    job_id=len(jobs), graph_id="g", pattern_name="3CF",
                    engine="batched", cancel_cb=lambda h: False,
                )
                job = Job(
                    handle=handle, graph_id="g", fingerprint="fp",
                    plan=None, config=None, cache_key=None, seq=len(jobs),
                    predicted_seconds=cost, enqueued_at=now,
                    not_before=None if backoff is None else now + backoff,
                )
                jobs.append(job)
                both("push", job)
            elif op == "pop":
                # a veto that refuses one job in three, or none
                salt = args[0]
                fits = None if salt is None else (
                    lambda job: (job.seq + salt) % 3 != 0
                )
                job = both("pop", now, fits)
                if job is not None:
                    job.handle._set_running()
                    running.append(job)
            elif op == "remove" and jobs:
                both("remove", jobs[args[0] % len(jobs)].handle)
            elif op == "requeue" and running:
                # what the service does with a crashed job
                job = running.pop(args[0] % len(running))
                job.handle._requeue()
                job.enqueued_at = now
                if both("push", job) is QueueFullError:
                    job.handle._finish(JobStatus.FAILED, error=RuntimeError())
            elif op == "tick":
                now += args[0]
            elif op == "drain":
                drained = queue.drain()
                assert sorted(j.seq for j in drained) == \
                    sorted(j.seq for j in ref.jobs)
                ref.jobs = []
            assert queue.depth() == len(ref.jobs)


class TestCancelRace:
    def test_every_handle_settles_once_under_racing_cancels(
        self, graph, monkeypatch
    ):
        """Eight threads submit and cancel while the dispatcher pops: a
        job settles once, cancelled only while queued, never both run
        and cancelled."""
        finished: dict[int, int] = {}
        finish = JobHandle._finish

        def counted(handle, status, *args, **kwargs):
            won = finish(handle, status, *args, **kwargs)
            if won:
                finished[handle.job_id] = finished.get(handle.job_id, 0) + 1
            return won

        launched: set[int] = set()
        launch = QueryService._launch

        def logged(self, job):
            launched.add(job.handle.job_id)
            launch(self, job)

        monkeypatch.setattr(JobHandle, "_finish", counted)
        monkeypatch.setattr(QueryService, "_launch", logged)
        svc, gid = make_service(
            graph, mode="thread", max_workers=2,
            executor=ScriptedExecutor(), queue_limit=8 * 40,
        )
        handles: list[JobHandle] = []
        cancelled: list[JobHandle] = []
        lock = threading.Lock()

        def client(seed):
            rng = np.random.default_rng(seed)
            mine = []
            for _ in range(40):
                mine.append(svc.submit(
                    gid, PATTERNS[("3CF", "WEDGE", "DIA")[rng.integers(3)]],
                    use_cache=False,
                ))
                if rng.random() < 0.5:
                    target = mine[rng.integers(len(mine))]
                    if target.cancel():
                        with lock:
                            cancelled.append(target)
            with lock:
                handles.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for handle in handles:
            try:
                handle.result(timeout=60)
            except JobCancelledError:
                pass
        stats = svc.stats()
        svc.shutdown()
        assert len(handles) == stats.submitted == 8 * 40
        assert all(finished[h.job_id] == 1 for h in handles)
        assert len({id(h) for h in cancelled}) == len(cancelled)
        assert {id(h) for h in cancelled} == {
            id(h) for h in handles if h.status is JobStatus.CANCELLED
        }
        assert not launched & {h.job_id for h in cancelled}
        assert len(launched) == stats.completed
        assert stats.completed + stats.cancelled == stats.submitted
        assert stats.cancelled == len(cancelled) > 0
