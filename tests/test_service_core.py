"""The dispatch core alone, fed events on an integer clock with no
service, thread or executor: what an attempt's end decides, the health
classification, the wake time and the closed state.  Where a job runs is
tested in ``test_service_sets.py``, the lifecycle and the queue's rule in
``test_service_concurrency.py``."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import QueueFullError, ServiceError, WorkerCrashError
from repro.service import Job, JobHandle, JobStatus
from repro.service import core as core_module
from repro.service.core import (
    DispatchState, HealthState, Outcome, Requeue, Settle,
)


def job(job_id, engine="batched", **fields) -> Job:
    return Job(
        handle=JobHandle(job_id, "g", "3CF", engine, lambda h: False),
        graph_id="g", fingerprint="fp", plan=None,
        config=SimpleNamespace(engine=engine), cache_key=None, seq=job_id,
        predicted_seconds=0.1, **fields,
    )


def running(core, j, now=0):
    """Submit ``j`` and begin it: it is in flight, in the pool."""
    assert core.admit(j, now) is False  # a cold job always queues
    assert core.next(now) is j and j.where == "pool"
    return j


class TestHealth:
    def test_watermarks(self):
        core = DispatchState(100)
        assert core.health(0) is HealthState.HEALTHY
        assert core.health(49) is HealthState.HEALTHY
        assert core.health(50) is HealthState.DEGRADED
        assert core.health(90) is HealthState.OVERLOADED

    def test_any_failing_engine_degrades(self):
        core = DispatchState(100, max_workers=9)
        for i in range(core_module.ENGINE_FAILURE_LIMIT):
            core.done(running(core, job(i)), Outcome.WRONG, 0)
        assert core.health(0) is HealthState.DEGRADED
        assert core.health(49) is HealthState.DEGRADED
        assert core.health(90) is HealthState.OVERLOADED
        # the engine's next clean run clears its record
        core.done(running(core, job(9)), Outcome.OK, 0)
        assert core.failures == {} and core.health(0) is HealthState.HEALTHY


class TestVerdicts:
    def test_a_crash_backs_off_doubling_until_its_retries_are_spent(
        self, monkeypatch
    ):
        backoff = 2  # whole clock ticks
        monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", backoff)
        core = DispatchState(4)
        j = running(core, job(1))
        wakes = []
        for attempt in range(1, core_module.MAX_RETRIES + 1):
            now = 10 * attempt
            assert core.done(j, Outcome.CRASH, now) == Requeue(
                now + backoff * 2 ** (attempt - 1)
            )
            assert core.in_flight == 0 and core.queue.depth() == 1
            # parked: the core names the time it is runnable again
            wakes.append(core.next(now) - now)
            assert core.next(j.not_before) is j
        assert wakes == [2, 4]
        verdict = core.done(j, Outcome.CRASH, 99, RuntimeError("boom"))
        assert verdict.status is JobStatus.FAILED
        assert isinstance(verdict.error, WorkerCrashError)
        assert "retries exhausted" in str(verdict.error)
        assert "boom" in str(verdict.error)
        assert core.failures == {"batched": core_module.MAX_RETRIES + 1}

    def test_a_retry_the_queue_refuses_fails_the_job(self):
        core = DispatchState(1)
        j = running(core, job(1))
        core.admit(job(2), 0)  # takes the one slot
        verdict = core.done(j, Outcome.CRASH, 0)
        assert verdict.status is JobStatus.FAILED
        assert isinstance(verdict.error, QueueFullError)

    def test_errors_and_dropped_calls_settle_and_leave_the_record(self):
        core = DispatchState(4, max_workers=2)
        error = ValueError("engine bug")
        assert core.done(running(core, job(1)), Outcome.ERROR, 0, error) == (
            Settle(JobStatus.FAILED, error)
        )
        assert core.done(running(core, job(2)), Outcome.CANCELLED, 0) == (
            Settle(JobStatus.CANCELLED)
        )
        assert core.failures == {} and core.in_flight == 0


class TestClosed:
    def test_a_submit_after_close_is_refused_and_nothing_is_queued(self):
        core = DispatchState(4)
        queued = job(1)
        core.pause()
        core.admit(queued, 0)
        assert core.close() == [queued]
        with pytest.raises(ServiceError, match="shut down"):
            core.admit(job(2), 0)
        assert core.queue.depth() == 0 and core.next(0) is None

    def test_a_crash_after_close_is_cancelled_not_requeued(self):
        core = DispatchState(4)
        j = running(core, job(1))
        assert core.close() == []
        assert core.done(j, Outcome.CRASH, 0) == Settle(JobStatus.CANCELLED)
        assert core.queue.depth() == 0 and core.in_flight == 0
        # its engine's record still counts the crash
        assert core.failures == {"batched": 1}


class TestWakeTime:
    def test_next_names_the_first_backoff_end_and_nothing_else(
        self, monkeypatch
    ):
        backoff = 2
        monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", backoff)
        core = DispatchState(4, max_workers=4)
        assert core.next(0) is None  # empty
        a, b = running(core, job(1)), running(core, job(2))
        core.done(b, Outcome.CRASH, 3)  # parked until 3 + backoff
        core.done(a, Outcome.CRASH, 1)  # parked until 1 + backoff
        assert core.next(1) == 1 + backoff
        core.pause()
        assert core.next(1) is None  # paused: no wake-up either
        core.resume()
        assert core.next(1 + backoff) is a
        assert core.next(1 + backoff) == 3 + backoff
