"""Concurrency edge cases, deterministically (no sleeps, no races).

Every timing decision in the service flows through an injectable clock
and sleep function, and the executor itself is injectable, so worker
crashes (retried with recorded backoffs), the caller's wait bound,
backpressure, cache invalidation and a shutdown racing a submit or a
crash are all driven from a single thread here.  A hypothesis state
machine walks the dispatch core (``DispatchState``) on an integer clock
and checks after every step that every job is in exactly one place, and
the core's queue is checked against a reference model the same way.  One
test drives real threads: eight clients against one service, for the
shell's own locking.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from functools import partial
from types import SimpleNamespace
from unittest import mock

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
from repro.core.config import xset_default
from repro.graph import erdos_renyi
from repro.errors import (
    JobCancelledError,
    JobTimeoutError,
    QueueFullError,
    ServiceError,
    WorkerCrashError,
)
from repro.patterns.executor import count_embeddings
from repro.patterns.pattern import PATTERNS
from repro.patterns.plan import build_plan
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.sched.adaptive import query_features
from repro.service import (
    InlineExecutor,
    Job,
    JobHandle,
    JobQueue,
    JobStatus,
    QueryService,
)
from repro.service import core as core_module
from repro.service import service as service_module
from repro.service.cache import pattern_cache_key
from repro.service.core import DispatchState, Outcome, Requeue


class FakeClock:
    """Hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingSleep:
    """Records each sleep; with a ``clock`` set, it also advances it."""

    clock: FakeClock | None = None

    def __init__(self) -> None:
        self.calls: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
        if self.clock is not None:
            self.clock.advance(seconds)


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


def bare(job_id, predicted, **fields) -> Job:
    """A job record of no service, priced at ``predicted`` seconds by the
    cost record (``math.inf``: its shape has not run)."""
    return Job(
        handle=JobHandle(job_id, "g", "3CF", "codegen", lambda h: False),
        graph_id="g", fingerprint="fp", plan=None,
        config=SimpleNamespace(engine="codegen"), cache_key=None,
        seq=job_id, predicted_seconds=predicted, **fields,
    )


class TestWorkerCrashRetry:
    def test_retries_until_success(self, graph):
        # inline, the service sleeps to each retry's wake time itself
        clock, sleep = FakeClock(), RecordingSleep()
        sleep.clock = clock
        executor = FlakyExecutor(failures=2)
        svc, gid = make_service(
            graph, executor=executor, clock=clock, sleep=sleep
        )
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        report = handle.result(timeout=60)
        assert report.embeddings == \
            XSetAccelerator(engine="codegen").count(
                graph, PATTERNS["3CF"]).embeddings
        assert handle.attempts == 3
        assert svc.stats().retries == 2
        # exponential backoff: second retry waits twice the first
        assert len(sleep.calls) == 2
        assert sleep.calls[1] == pytest.approx(2 * sleep.calls[0])

    def test_a_crash_after_submit_returned_is_retried(self, graph):
        # inline mode has no dispatcher: the thread that fails a pending
        # future after submit returned must run the retry itself
        clock, sleep = FakeClock(), RecordingSleep()
        sleep.clock = clock
        pending = Future()

        class LateFailure(InlineExecutor):
            calls = 0

            def submit(self, fn, /, *args, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    return pending
                return super().submit(fn, *args, **kwargs)

        svc, gid = make_service(
            graph, executor=LateFailure(), clock=clock, sleep=sleep
        )
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        assert not handle.done()
        failer = threading.Thread(
            target=pending.set_exception,
            args=(BrokenExecutor("worker died after submit returned"),),
        )
        failer.start()
        failer.join(timeout=60)
        report = handle.result(timeout=5)
        assert report.embeddings == \
            XSetAccelerator(engine="codegen").count(
                graph, PATTERNS["3CF"]).embeddings
        assert handle.attempts == 2
        assert svc.stats().retries == 1
        assert svc.stats().queue_depth == 0

    def test_retries_exhausted_fails_typed(self, graph):
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=100)
        svc, gid = make_service(graph, executor=executor, sleep=sleep)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        assert handle.status is JobStatus.FAILED
        with pytest.raises(WorkerCrashError, match="retries exhausted"):
            handle.result()
        stats = svc.stats()
        assert stats.failed == 1
        assert stats.retries == service_module.MAX_RETRIES

    def test_pool_mode_backoff_never_sleeps_in_callback(self, graph):
        # process mode runs _on_done on the executor's completion thread
        # (here the dispatcher, the injected executor being inline);
        # sleeping there would stall every other in-flight completion, so
        # the backoff must be deferred through the queue instead
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=2)
        svc, gid = make_service(
            graph, mode="process", executor=executor, sleep=sleep
        )
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        report = handle.result(timeout=60)
        assert report.embeddings == \
            XSetAccelerator(engine="codegen").count(
                graph, PATTERNS["3CF"]).embeddings
        assert handle.attempts == 3
        assert svc.stats().retries == 2
        assert sleep.calls == []  # backoff waited out in the queue
        svc.shutdown()

    def test_queue_defers_job_until_not_before(self, graph):
        job = bare(1, 0.0, not_before=5.0)
        queue = JobQueue(limit=4)
        queue.push(job)
        assert queue.pop(0.0) is None  # backoff pending: deferred ...
        assert queue.depth() == 1      # ... but still queued, not dropped
        assert queue.pop(10.0) is job  # runnable once the backoff elapsed
        assert queue.depth() == 0

    def test_shutdown_releases_job_parked_on_backoff(self, graph):
        job = bare(1, 0.0, not_before=1e9)
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
    """A factory of bare jobs, numbered from 0."""
    seq = itertools.count()
    return lambda predicted, enqueued_at=0.0: bare(
        next(seq), predicted, enqueued_at=enqueued_at
    )


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
        popped = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        queued = svc.submit(gid, PATTERNS["WEDGE"], engine="codegen")
        assert queued.cancel() is True
        assert queued.cancel() is False
        svc.resume()
        assert popped.result(timeout=60).embeddings == \
            XSetAccelerator(engine="codegen").count(
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
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        assert handle.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result(timeout=5)
        assert svc.stats().cancelled == 1
        svc.shutdown()

    def test_cancel_finished_job_is_noop(self, graph):
        svc, gid = make_service(graph)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
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
        """A write invalidates every cached entry of the old snapshot: the
        session's own pattern is re-cached with its maintained count, and
        another pattern's first read is not a cache hit."""
        svc, gid = make_service(graph)
        svc.count(gid, PATTERNS["DIA"], engine="codegen")  # cached
        before = svc.count(gid, PATTERNS["3CF"], engine="codegen")
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        u, v = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        delta = session.insert_edge(u, v)
        assert svc.stats().cache_invalidations >= 2
        handle = svc.submit(gid, PATTERNS["DIA"], engine="codegen")
        after = handle.result()
        assert not handle.from_cache
        # cross-check against a fresh count on the updated snapshot
        fresh = XSetAccelerator(engine="codegen").count(
            session.snapshot(), PATTERNS["DIA"]
        )
        assert after.embeddings == fresh.embeddings
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        assert handle.result().embeddings == before.embeddings + delta
        assert handle.from_cache
        svc.shutdown()

    def test_dynamic_update_delta_patches(self, graph):
        svc, gid = make_service(graph)
        before = svc.count(gid, PATTERNS["3CF"], engine="codegen")
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        u, v = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        delta = session.insert_edge(u, v)
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        patched = handle.result()
        assert handle.from_cache  # served without re-running the engine
        assert patched.embeddings == before.embeddings + delta
        # removal patches back down
        session.remove_edge(u, v)
        handle2 = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
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
                    gid, pattern, engine="codegen", use_cache=use_cache
                ).result()
                assert served.embeddings == truth
        svc.shutdown()

    def test_update_graph_invalidates(self, graph, medium_er):
        svc, gid = make_service(graph)
        svc.count(gid, PATTERNS["3CF"], engine="codegen")
        dropped = svc.update_graph(gid, medium_er)
        assert dropped == 1
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen")
        report = handle.result()
        assert not handle.from_cache
        assert report.embeddings == XSetAccelerator(engine="codegen").count(
            medium_er, PATTERNS["3CF"]
        ).embeddings
        svc.shutdown()


#: what the patched-read tests keep cached beside the session's 3CF
PATCHED = {
    "DIA": (PATTERNS["DIA"], None),
    "WEDGE": (PATTERNS["WEDGE"], True),
    "TT": (PATTERNS["TT"], None),
    "CYC": (PATTERNS["CYC"], None),
    "3CF-labelled": (PATTERNS["3CF"].with_labels([0, 0, 1]), None),
}
PATCH_N = 16
CODEGEN = xset_default(engine="codegen")


def toggle(session, u: int, v: int) -> None:
    if session.has_edge(u, v):
        session.remove_edge(u, v)
    else:
        session.insert_edge(u, v)


class TestPatchedReads:
    """A write keeps every cached answer: the first read after it patches
    the stale entry by the edit's delta, and a second write first
    drops it."""

    @given(
        seed=st.integers(0, 40),
        steps=st.lists(
            st.tuples(
                st.integers(0, PATCH_N - 1), st.integers(0, PATCH_N - 1),
                st.booleans(),
            ).filter(lambda e: e[0] != e[1]),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_served_count_is_the_snapshots(self, seed, steps):
        graph = erdos_renyi(PATCH_N, 5.0, seed=seed).with_labels(
            np.arange(PATCH_N) % 2
        )
        svc, gid = make_service(graph, config=CODEGEN)
        svc.count(gid, PATTERNS["3CF"])
        for pattern, induced in PATCHED.values():
            svc.count(gid, pattern, induced=induced)
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        # fresh: cached for this snapshot; stale: one write behind;
        # gone: two writes behind, dropped
        state = dict.fromkeys(PATCHED, "fresh")
        for u, v, read in steps:
            toggle(session, u, v)
            state = {
                name: "stale" if was == "fresh" else "gone"
                for name, was in state.items()
            }
            if not read:
                continue
            snap = session.snapshot()
            own = svc.submit(gid, PATTERNS["3CF"])
            assert own.from_cache
            assert own.result().embeddings == session.count == (
                count_embeddings(snap, session.plan).embeddings
            )
            for name, (pattern, induced) in PATCHED.items():
                truth = count_embeddings(
                    snap, build_plan(pattern, induced=induced)
                ).embeddings
                for _ in range(2):  # the patched read, then a hit
                    patched = svc.stats().cache_patched
                    handle = svc.submit(gid, pattern, induced=induced)
                    assert handle.result().embeddings == truth, name
                    assert handle.from_cache == (state[name] == "fresh")
                    assert svc.stats().cache_patched == patched + (
                        state[name] == "stale"
                    )
                    state[name] = "fresh"
        svc.shutdown()

    def test_a_graph_swapped_under_the_session_is_not_patched(
        self, graph, medium_er
    ):
        # the cached DIA answers for medium_er, which the session's edit
        # did not edit: its read recounts the session's snapshot
        svc, gid = make_service(graph, config=CODEGEN)
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        svc.update_graph(gid, medium_er)
        svc.count(gid, PATTERNS["DIA"])
        toggle(session, 0, 1)
        handle = svc.submit(gid, PATTERNS["DIA"])
        assert handle.result().embeddings == count_embeddings(
            session.snapshot(), build_plan(PATTERNS["DIA"])
        ).embeddings
        assert not handle.from_cache
        assert svc.stats().cache_patched == 0
        svc.shutdown()

    def test_a_patched_read_is_traced_and_trains_nothing(self, graph):
        svc, gid = make_service(graph, config=CODEGEN, observability=True)
        svc.count(gid, PATTERNS["DIA"])
        session = svc.dynamic_session(gid, PATTERNS["3CF"])
        session.insert_edge(*next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        ))
        before = svc.stats()
        handle = svc.submit(gid, PATTERNS["DIA"])
        assert handle.result().embeddings == count_embeddings(
            session.snapshot(), build_plan(PATTERNS["DIA"])
        ).embeddings
        assert not handle.from_cache
        (span,) = [
            sp for sp in svc._observation.tracer.finished()
            if sp.name == "service.job"
            and sp.attrs["job_id"] == handle.job_id
        ]
        assert span.attrs["where"] == "patch"
        stats = svc.stats()
        assert stats.cache_patched == 1
        assert stats.worker_calls == before.worker_calls
        assert stats.predictor == before.predictor  # no run was observed
        assert "1 patched" in stats.summary()
        svc.shutdown()


class TestDispatcherWakeup:
    def test_job_pushed_after_an_empty_pop_is_not_slept_on(self, graph):
        # pushers enqueue and notify under the lock the dispatcher holds
        # from its empty look at the core to its wait, so a push in
        # between cannot be slept on: with no poll interval left, a lost
        # notify would sleep forever.  Interpose on next: the instant it
        # comes back empty, another thread submits a job.  The pool is
        # threads: the dispatcher is real, and nothing forks
        pool = ThreadPoolExecutor(max_workers=2)
        svc, gid = make_service(
            graph, mode="process", max_workers=2, executor=pool
        )
        real_next = svc._core.next
        late: list[JobHandle] = []
        injected = threading.Event()

        submitter = threading.Thread(target=lambda: late.append(svc.submit(
            gid, PATTERNS["DIA"], engine="codegen"
        )))

        def next_(now):
            act = real_next(now)
            if act is None and not injected.is_set():
                # started before the event is set: the main thread joins
                # the submitter as soon as it sees the event
                submitter.start()
                injected.set()
            return act

        svc._core.next = next_
        svc.submit(gid, PATTERNS["3CF"], engine="codegen").result(timeout=60)
        assert injected.wait(timeout=60)  # the next look is the empty one
        submitter.join(timeout=60)
        late[0].result(timeout=10)
        svc.shutdown()
        pool.shutdown()


class TestPerSubmitConstants:
    def test_submits_of_one_pattern_share_plan_and_config_key(self, graph):
        # build_plan and SystemConfig.cache_key are pure functions of
        # immutable arguments: submit derives neither twice
        svc, gid = make_service(graph, start_paused=True)
        same = dataclasses.replace(PATTERNS["DIA"])  # equal, not identical
        for pattern in (PATTERNS["DIA"], same, PATTERNS["3CF"]):
            svc.submit(gid, pattern)
        # the queue's entries, in push order
        entries = sorted(svc._core.queue._entries, key=lambda entry: entry[1])
        dia, dia2, tri = (job for _, _, job in entries)
        assert dia.plan is dia2.plan and dia.plan is not tri.plan
        assert dia.cache_key.config_key is svc.config.cache_key()
        assert dia2.cache_key.config_key is tri.cache_key.config_key
        svc.shutdown()

    def test_an_engine_override_is_one_config(self, graph):
        # submits naming an engine other than the service's share one
        # overridden config, hence one config key
        svc, gid = make_service(graph, start_paused=True)
        assert svc.config.engine != "codegen"
        for pattern in (PATTERNS["DIA"], PATTERNS["3CF"]):
            svc.submit(gid, pattern, engine="codegen")
        entries = sorted(svc._core.queue._entries, key=lambda entry: entry[1])
        first, second = (job for _, _, job in entries)
        assert first.config is second.config
        assert first.config.engine == "codegen"
        assert first.cache_key.config_key is second.cache_key.config_key
        svc.shutdown()


class TestShutdownRaces:
    """Nothing pops the queue after shutdown: a job pushed then would be
    pending forever, so none is."""

    @pytest.mark.parametrize("pool", ["inline", "thread"])
    def test_a_submit_racing_shutdown_is_refused(self, graph, pool):
        # "thread": a process-mode service (a dispatcher thread, light
        # jobs here) whose pool is injected threads, so nothing forks
        executor = ThreadPoolExecutor(1) if pool == "thread" else None
        svc, gid = make_service(
            graph, mode="process" if executor else "inline",
            executor=executor,
        )
        resolve = svc._resolve

        def resolve_then_shut_down(*args):
            job = resolve(*args)
            svc.shutdown(wait=False)  # lands before the job is taken
            return job

        svc._resolve = resolve_then_shut_down
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        stats = svc.stats()
        assert stats.submitted == 0 and stats.queue_depth == 0
        if executor is not None:
            executor.shutdown()

    def test_a_pool_call_crashing_after_shutdown_is_cancelled(self, graph):
        futures: list[Future] = []
        holding = SimpleNamespace(  # keeps every call's future unfinished
            submit=lambda *args, **kw: futures.append(Future()) or futures[-1]
        )
        svc, gid = make_service(graph, executor=holding)
        handle = svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        (future,) = futures
        svc.shutdown(wait=False)
        future.set_exception(BrokenExecutor("worker died after shutdown"))
        with pytest.raises(JobCancelledError):
            handle.result(timeout=2)
        stats = svc.stats()
        assert (stats.cancelled, stats.retries, stats.queue_depth) == (1, 0, 0)


# ---------------------------------------------------------------------------
# the job lifecycle as a state machine, on the core
# ---------------------------------------------------------------------------


def light(core, job) -> bool:
    """The light rule, said plainly (``DispatchState`` is the code)."""
    return (
        job.predicted_seconds < core_module.LIGHT_SECONDS
        and core.failures.get("codegen", 0) < core_module.ENGINE_FAILURE_LIMIT
        and not job.faults and not job.verify_engine
    )


class JobLifecycle(RuleBasedStateMachine):
    """Random walks of submit / next / done / cancel / pause / arm / clock
    / close events, fed to a ``DispatchState`` on an integer clock: after
    every step each accepted job is in exactly one place (ended once, the
    queue, or in flight), pool calls stay within the workers and a job
    runs here only when light; after close no job is left waiting."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0
        self.core = DispatchState(3, max_workers=2)
        self.accepted: list[Job] = []
        self.running: list[Job] = []
        self.ended: dict[int, JobStatus] = {}

    def _begun(self, job: Job) -> None:
        assert job.attempts >= 1
        assert job.where == "pool" or light(self.core, job)
        self.running.append(job)

    def _end(self, job: Job, status: JobStatus) -> None:
        assert job.handle.job_id not in self.ended  # once
        self.ended[job.handle.job_id] = status

    @rule(ms=st.sampled_from([0.2, 0.5, 500.0, math.inf]))
    def submit(self, ms):
        job = bare(len(self.accepted) + 100, ms * 1e-3)
        try:
            here = self.core.admit(job, self.now)
        except QueueFullError:  # the one refusal: counted nowhere else
            assert self.core.queue.depth() == self.core.queue.limit
            return
        except ServiceError:
            assert self.core.closed
            return
        self.accepted.append(job)
        if here:
            self._begun(job)

    @rule()
    def next(self):
        act = self.core.next(self.now)
        if isinstance(act, Job):
            self._begun(act)
        elif act is not None:
            assert act > self.now  # a wake time is always ahead

    @precondition(lambda self: self.running)
    @rule(data=st.data(), outcome=st.sampled_from(list(Outcome)))
    def done(self, data, outcome):
        job = data.draw(st.sampled_from(self.running))
        self.running.remove(job)
        verdict = self.core.done(job, outcome, self.now, RuntimeError("x"))
        if isinstance(verdict, Requeue):
            assert outcome is Outcome.CRASH and not self.core.closed
        else:
            self._end(job, verdict.status)

    @precondition(lambda self: self.accepted)
    @rule(data=st.data())
    def cancel(self, data):
        job = data.draw(st.sampled_from(self.accepted))
        if self.core.cancel(job.handle) is not None:
            self._end(job, JobStatus.CANCELLED)

    @rule(seconds=st.sampled_from([1, 3]))
    def advance_clock(self, seconds):
        self.now += seconds

    @rule(paused=st.booleans())
    def pause_or_resume(self, paused):
        self.core.pause() if paused else self.core.resume()

    @rule(rate=st.sampled_from([0.0, 0.5]))
    def arm(self, rate):
        self.core.arm(FaultPlan(seed=3, specs=(FaultSpec(
            site="worker.run", kind=FaultKind.CRASH, rate=rate,
        ),)) if rate else None)

    @rule()
    def close(self):
        for job in self.core.close():
            self._end(job, JobStatus.CANCELLED)

    @invariant()
    def every_job_is_in_exactly_one_place(self):
        queued = [e[2].handle.job_id for e in self.core.queue._entries]
        running = [job.handle.job_id for job in self.running]
        places = queued + running + list(self.ended)
        assert sorted(places) == sorted(j.handle.job_id for j in self.accepted)
        assert self.core.in_flight == len(self.running)

    @invariant()
    def pool_calls_stay_within_the_workers(self):
        pooled = [job for job in self.running if job.where == "pool"]
        assert len(pooled) <= self.core.max_workers

    def teardown(self):
        self.close()
        for job in self.running:
            self._end(job, self.core.done(job, Outcome.OK, self.now).status)
        assert set(self.ended) == {job.handle.job_id for job in self.accepted}


TestJobLifecycle = JobLifecycle.TestCase
TestJobLifecycle.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    derandomize=True,
)


class TestCountsAgreeWithSeries:
    """Three disagreements between a count and its series, one case each."""

    def test_refused_submission_is_not_counted_as_submitted(self, graph):
        svc, gid = make_service(graph, queue_limit=1, start_paused=True)
        svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        with pytest.raises(QueueFullError):
            svc.submit(gid, PATTERNS["WEDGE"], use_cache=False)
        stats = svc.stats()
        assert stats.submitted == 1 and stats.queue_depth == 1
        assert stats.metrics["repro_jobs_submitted_total"] == 1
        svc.shutdown()

    def test_requeue_into_a_full_queue_fails_like_any_failure(self, graph):
        # the next dispatch dies, and before its retry is pushed back a
        # client (here: from inside the dying call) takes every queue slot
        svc, gid = make_service(graph, queue_limit=3)
        handles = []

        class CrashesOnceAfterFilling(InlineExecutor):
            def submit(self, fn, /, *args, **kwargs):
                svc.pause()
                for name in ("3CF", "WEDGE", "DIA"):
                    handles.append(svc.submit(gid, PATTERNS[name]))
                raise BrokenExecutor("worker died (scripted)")

        svc._executor = CrashesOnceAfterFilling()
        failed = svc.submit(gid, PATTERNS["TT"], use_cache=False)
        with pytest.raises(QueueFullError):
            failed.result(timeout=5)
        stats = svc.stats()
        assert stats.failed == 1 and stats.retries == 1
        assert stats.metrics["repro_jobs_failed_total"] == 1
        assert stats.metrics["repro_job_retries_total"] == 1
        assert stats.submitted == 4 and stats.queue_depth == 3
        svc.shutdown()
        assert all(h.status is JobStatus.CANCELLED for h in handles)

    def test_cancelled_jobs_have_a_series(self, graph):
        svc, gid = make_service(graph, start_paused=True)
        assert svc.submit(gid, PATTERNS["3CF"]).cancel()
        stats = svc.stats()
        assert stats.cancelled == 1
        assert stats.metrics["repro_jobs_cancelled_total"] == 1
        svc.shutdown()


# ---------------------------------------------------------------------------
# the core's queue against a reference model
# ---------------------------------------------------------------------------


class ReferenceQueue:
    """The dispatch rule as plainly as it can be said: jobs in push order;
    the earliest-pushed goes once it has waited ``age_limit`` unless it is
    on backoff, else the cheapest not on backoff; a refused job stays."""

    def __init__(self, limit: int, age_limit: float) -> None:
        self.limit, self.age_limit, self.jobs = limit, age_limit, []
        self.closed = False

    def push(self, job: Job) -> None:
        if self.closed:
            raise ServiceError("closed")
        if len(self.jobs) >= self.limit:
            raise QueueFullError("full")
        self.jobs.append(job)

    def pop(self, now, fits=None):
        def parked(job):
            return job.not_before is not None and now < job.not_before

        runnable = [job for job in self.jobs if not parked(job)]
        wake = min(
            (job.not_before for job in self.jobs if parked(job)),
            default=None,
        )
        if not runnable:
            return wake
        head = self.jobs[0]
        if now - head.enqueued_at < self.age_limit or parked(head):
            head = min(runnable, key=Job.cost_key)
        if fits is not None and not fits(head):
            return wake
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
            st.sampled_from([0.1, 0.5, 0.5, 3.0]),  # ms, with ties
            st.sampled_from([None, 0, 1, 4]),  # backoff, if any
        ),
        st.tuples(st.just("pop"), st.booleans()),  # with the pool full?
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("requeue"), st.integers(0, 40)),
        st.tuples(st.just("finish"), st.integers(0, 40)),
        st.tuples(st.just("tick"), st.sampled_from([1, 2, 3])),
        st.tuples(st.just("drain")),
    ),
    min_size=20,
    max_size=80,
)


class TestQueueAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=queue_ops)
    def test_every_result_and_depth_match_the_reference(self, ops):
        with mock.patch.object(core_module, "RETRY_BACKOFF_SECONDS", 1):
            self.walk(ops)

    def walk(self, ops):
        core, ref = DispatchState(5), ReferenceQueue(5, 2.0)
        # one call held in flight: the core is never idle, so every
        # submit queues
        blocker = bare(0, 0.5)
        core.admit(blocker, 0)
        assert core.next(0) is blocker
        now, jobs, running, crashes = 0, [], [], 0

        def refusal(call, *args):
            try:
                assert not call(*args)  # False (queued) or None
            except (QueueFullError, ServiceError) as exc:
                return type(exc)
            return None

        for op, *args in ops:
            if op == "push":
                ms, backoff = args
                job = bare(len(jobs) + 1, ms * 1e-3)
                job.not_before = None if backoff is None else now + backoff
                job.enqueued_at = now  # as the core's submit sets it
                jobs.append(job)
                assert refusal(core.admit, job, now) == refusal(ref.push, job)
            elif op == "pop":
                # a full pool pops through the light rule's veto
                core.max_workers = core.in_flight if args[0] else 99
                veto = partial(light, core) if args[0] else None
                expected = ref.pop(now, veto)
                act = core.next(now)
                assert act is expected if isinstance(expected, Job) \
                    else act == expected
                if isinstance(act, Job):
                    assert act.where == (
                        "service" if light(core, act) else "pool"
                    )
                    running.append(act)
            elif op == "remove" and jobs:
                handle = jobs[args[0] % len(jobs)].handle
                assert core.cancel(handle) is ref.remove(handle)
            elif op == "requeue" and running:
                # what the core does with a crashed job: back off and
                # queue it, unless its retries are spent or it is closed
                job = running.pop(args[0] % len(running))
                crashes += 1
                if job.attempts > core_module.MAX_RETRIES:
                    expected = JobStatus.FAILED
                elif ref.closed:
                    expected = JobStatus.CANCELLED
                elif len(ref.jobs) >= ref.limit:
                    expected = JobStatus.FAILED  # the queue refused it
                else:
                    expected = Requeue(now + 2 ** (job.attempts - 1))
                verdict = core.done(job, Outcome.CRASH, now)
                if isinstance(expected, Requeue):
                    assert verdict == expected
                    ref.push(job)  # with the backoff the core gave it
                else:
                    assert verdict.status is expected
            elif op == "finish" and running:
                job = running.pop(args[0] % len(running))
                assert core.done(job, Outcome.OK, now).status is JobStatus.DONE
                crashes = 0
            elif op == "tick":
                now += args[0]
            elif op == "drain":
                drained = core.close()
                assert sorted(j.seq for j in drained) == \
                    sorted(j.seq for j in ref.jobs)
                ref.jobs, ref.closed = [], True
            assert core.queue.depth() == len(ref.jobs)
            assert core.failures.get("codegen", 0) == crashes


# ---------------------------------------------------------------------------
# the shell under eight racing clients
# ---------------------------------------------------------------------------


class TestCancelRace:
    def test_every_handle_settles_once_under_racing_cancels(
        self, graph, monkeypatch
    ):
        """Eight closed-loop clients, switching every 10 µs, submit warm
        light and heavy jobs to one service and cancel some: a job
        settles once, cancelled only while queued, never both run and
        cancelled; pool calls stay within the workers, at most one job
        runs on a submitting thread at a time, and every count is right."""
        finished: dict[int, int] = {}
        finish = JobHandle._finish

        def counted(handle, status, *args, **kwargs):
            won = finish(handle, status, *args, **kwargs)
            if won:
                finished[handle.job_id] = finished.get(handle.job_id, 0) + 1
            return won

        monkeypatch.setattr(JobHandle, "_finish", counted)
        # more pool threads than workers: only the service's gate keeps
        # its calls within max_workers
        pool = ThreadPoolExecutor(max_workers=8)
        svc, gid = make_service(
            graph, mode="process", max_workers=2, executor=pool,
            queue_limit=8 * 30,
        )
        light_shapes = ("3CF", "WEDGE", "DIA")
        for name, seconds in [(n, 2e-4) for n in light_shapes] + [("TT", .5)]:
            features = query_features(
                graph, graph.fingerprint(),
                pattern_cache_key(PATTERNS[name], None),
            )
            svc.predictor.observe(features, "codegen", seconds)
        # the cost model stays where it was put: a run slowed by the
        # switching must not turn a light shape heavy mid-test
        monkeypatch.setattr(svc.predictor, "observe", lambda *args: None)
        clients: set[threading.Thread] = set()
        # runs at once, [now, peak], on a client thread and in the pool
        running = {"client": [0, 0], "pool": [0, 0]}
        real_run_job = service_module.run_job
        lock = threading.Lock()

        def run_job(*args, **kwargs):
            thread = threading.current_thread()
            kind = "client" if thread in clients else (
                "pool" if thread.name.startswith("ThreadPoolExecutor")
                else "dispatcher"
            )
            count = running.setdefault(kind, [0, 0])
            with lock:
                count[0] += 1
                count[1] = max(count)
            try:
                return real_run_job(*args, **kwargs)
            finally:
                with lock:
                    count[0] -= 1

        monkeypatch.setattr(service_module, "run_job", run_job)
        want = {
            name: count_embeddings(
                graph, build_plan(PATTERNS[name])
            ).embeddings
            for name in light_shapes + ("TT",)
        }
        handles: list[tuple[str, JobHandle]] = []
        cancelled: list[JobHandle] = []

        def client(seed):
            rng = np.random.default_rng(seed)
            mine = []
            for i in range(30):
                name = "TT" if i % 5 == 0 else light_shapes[rng.integers(3)]
                mine.append((name, svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="codegen",
                )))
                if rng.random() < 0.5:
                    target = mine[rng.integers(len(mine))][1]
                    if target.cancel():
                        with lock:
                            cancelled.append(target)
            with lock:
                handles.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(8)
            ]
            clients.update(threads)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for name, handle in handles:
            try:
                assert handle.result(timeout=60).embeddings == want[name]
            except JobCancelledError:
                pass
        stats = svc.stats()
        svc.shutdown()
        pool.shutdown()
        assert len(handles) == stats.submitted == 8 * 30
        assert all(finished[h.job_id] == 1 for _, h in handles)
        assert len({id(h) for h in cancelled}) == len(cancelled) > 0
        assert {id(h) for h in cancelled} == {
            id(h) for _, h in handles if h.status is JobStatus.CANCELLED
        }
        # a cancelled job was never started, every other one once
        assert all(
            h.attempts == (h.status is not JobStatus.CANCELLED)
            for _, h in handles
        )
        assert stats.completed + stats.cancelled == stats.submitted
        assert stats.in_flight == 0
        assert 0 < running["pool"][1] <= svc.max_workers
        assert running["client"][1] <= 1
