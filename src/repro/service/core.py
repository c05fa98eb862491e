"""The service's dispatch decisions, as a state machine with no threads.

X-SET's barrier-free scheduler sends any ready task to any free SIU by
one rule.  :class:`DispatchState` is the service's version of that rule:
the queue, the in-flight slots, each engine's failure record, the retry
backoff, the light and idle rules, the fault draw and the health state.
It holds no thread, lock, clock or executor.  Its inputs are events, each
given the time it happens at: ``admit(job, now)`` (a submit), ``next(now)``
and ``done(job, outcome, now)``, plus ``cancel``, ``close``,
``pause``/``resume`` and ``arm``; ``health`` classifies it.
:class:`~repro.service.service.QueryService` is the shell: it makes every
call here under one lock and applies the answers (runs, settles, spans,
counts), so the tests of these decisions feed events to a
``DispatchState`` on an integer clock, with no executor.
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, NamedTuple

from ..errors import QueueFullError, ServiceError, WorkerCrashError
from .job import Job, JobHandle, JobStatus
from .scheduler import JobQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultPlan

__all__ = [
    "DispatchState", "ENGINE_FAILURE_LIMIT", "HealthState", "LIGHT_SECONDS",
    "MAX_RETRIES", "Outcome", "RETRY_BACKOFF_SECONDS", "Requeue", "Settle",
]

#: crash-shaped failures one job is retried after, and the backoff before
#: its first retry; each further retry waits twice as long as the last
MAX_RETRIES = 2
RETRY_BACKOFF_SECONDS = 0.05

#: crash or wrong-result failures of one engine since its last clean run
#: at which it is failing: it marks the service degraded, and its jobs run
#: in the pool until one of them runs clean
ENGINE_FAILURE_LIMIT = 3

#: A job whose shape has run clean in under this many seconds runs in the
#: service process instead of paying a pool round trip (≈0.65 ms of
#: wake-ups around a 0.3 ms run); it is also the longest such a job holds
#: up the next dispatch.  docs/ARCHITECTURE.md, *Where a job runs*, has
#: the numbers.
LIGHT_SECONDS = 0.001

#: queue occupancy (fraction of the limit) at or above which = DEGRADED
QUEUE_DEGRADED_FRACTION = 0.5
#: queue occupancy at or above which = OVERLOADED
QUEUE_OVERLOADED_FRACTION = 0.9


class HealthState(enum.Enum):
    """Service-level condition (values are the exported gauge levels): a
    report, not a policy.  The service accepts work in every state, a full
    queue is its one backpressure signal, and the cluster coordinator
    reads the state of each shard."""

    HEALTHY = 0
    DEGRADED = 1
    OVERLOADED = 2


class Outcome(enum.Enum):
    """How one attempt ended, as the shell saw it."""

    OK = "ok"                # a report, clean
    WRONG = "wrong"          # a report whose cross-check disagreed
    CRASH = "crash"          # the worker died (crash-shaped error)
    ERROR = "error"          # any other exception: never retried
    CANCELLED = "cancelled"  # the executor dropped the call


class Settle(NamedTuple):
    """End the job in ``status`` (with ``error`` when it failed)."""

    status: JobStatus
    error: BaseException | None = None


#: what an attempt that did not crash ends the job as
_SETTLES = {
    Outcome.OK: JobStatus.DONE,
    Outcome.WRONG: JobStatus.DONE,
    Outcome.ERROR: JobStatus.FAILED,
    Outcome.CANCELLED: JobStatus.CANCELLED,
}


class Requeue(NamedTuple):
    """The crashed job is queued again, runnable from ``not_before``
    (None: at once).  The backoff is waited out in the queue: the call
    that reports a crash may run on an executor's completion thread, and
    sleeping there would hold up every other completion."""

    not_before: float | None


class DispatchState:
    """Where and when every job runs; see the module docstring.

    ``in_process=False`` (inline mode) runs every job through the pool
    executor and puts no gate on it: no job runs "here" and none waits
    for a slot.
    """

    def __init__(
        self,
        queue_limit: int = 256,
        max_workers: int = 1,
        *,
        in_process: bool = True,
        verify_fraction: float = 0.0,
        paused: bool = False,
    ) -> None:
        self.queue = JobQueue(queue_limit)
        self.max_workers = max_workers
        self.in_process = in_process
        #: share of jobs, picked by job id, re-run on a second engine and
        #: compared by count; 0.0 checks none
        self.verify_fraction = verify_fraction
        self.paused = paused
        self.closed = False
        #: begun attempts not yet ``done``: pool calls, plus at most one
        #: run in the service process
        self.in_flight = 0
        #: engine → crash or wrong-result failures since its last clean
        #: run, for the engines with any
        self.failures: dict[str, int] = {}
        self.plan: "FaultPlan | None" = None

    # -- events ------------------------------------------------------------

    def admit(self, job: Job, now: float) -> bool:
        """A submit: True when ``job`` is begun to run here now, False
        when it is queued.  Raises ``QueueFullError`` when the queue is
        full and ``ServiceError`` once closed.

        The idle rule: a light job on an idle service (not paused,
        nothing queued, nothing in flight) runs on the submitting thread.
        Waking the dispatcher for it costs two thread hops per query, and
        a pool job still queues, so cost order decides a burst's first
        pool call.  In flight counts it, so any other submit meanwhile
        finds the service busy.
        """
        if self.closed:
            raise ServiceError("service has been shut down")
        job.enqueued_at = now
        if (
            self.in_process
            and not (self.paused or self.in_flight or self.queue.depth())
            and self._light(job)
        ):
            self._begin(job, "service")
            return True
        self.queue.push(job)
        return False

    def next(self, now: float) -> "Job | float | None":
        """The next job to start, begun (its attempt counted, its faults
        drawn, its cross-check engine sampled, a slot taken and
        ``job.where`` set to ``"service"`` or ``"pool"``); else, when only
        jobs on a retry backoff hold it up, the time to ask again; else
        None.

        While every pool worker is busy only a job that runs here is
        handed out: one the veto refuses stays at the head of the queue,
        so dispatch keeps policy order.  A job run here has settled
        before this is asked again, so ``in_flight`` counts pool calls
        and at most one run on a submitting thread, which ends within
        about ``LIGHT_SECONDS``.
        """
        if self.paused or self.closed:
            return None
        full = self.in_process and self.in_flight >= self.max_workers
        job = self.queue.pop(now, self._light if full else None)
        if job is None:
            return self.queue.parked_until(now)
        light = self.in_process and self._light(job)
        self._begin(job, "service" if light else "pool")
        return job

    def done(
        self,
        job: Job,
        outcome: Outcome,
        now: float,
        error: BaseException | None = None,
    ) -> "Settle | Requeue":
        """One begun attempt ended with ``outcome`` (and ``error``, the
        exception of a crash or an error).

        A crash or a wrong result adds one to the engine's failure record,
        a clean report clears it.  A crash is retried ``MAX_RETRIES`` times
        on the same engine, with doubling backoff from
        ``RETRY_BACKOFF_SECONDS``; the retry settles instead when the queue
        refuses it (FAILED, with the ``QueueFullError``) or the state is
        closed (CANCELLED, like every job queued at close: nothing pops
        the queue any more).
        """
        self.in_flight -= 1
        engine = job.config.engine
        if outcome in (Outcome.CRASH, Outcome.WRONG):
            self.failures[engine] = self.failures.get(engine, 0) + 1
        elif outcome is Outcome.OK:
            self.failures.pop(engine, None)
        if outcome is not Outcome.CRASH:
            return Settle(_SETTLES[outcome], error)
        if job.attempts > MAX_RETRIES:
            return Settle(JobStatus.FAILED, WorkerCrashError(
                f"job {job.handle.job_id} crashed {job.attempts} time(s); "
                f"retries exhausted ({MAX_RETRIES}): {error}"
            ))
        if self.closed:
            return Settle(JobStatus.CANCELLED)
        delay = RETRY_BACKOFF_SECONDS * 2 ** (job.attempts - 1)
        job.not_before = now + delay if delay else None
        job.enqueued_at = now
        try:
            self.queue.push(job)
        except QueueFullError as full:
            return Settle(JobStatus.FAILED, full)
        return Requeue(job.not_before)

    def cancel(self, handle: JobHandle) -> "Job | None":
        """Take ``handle``'s job out of the queue; None when it is not
        queued.  A job is cancellable exactly while it is queued: whoever
        takes it out first (this, ``next`` or ``close``) owns it."""
        return self.queue.remove(handle)

    def close(self) -> list[Job]:
        """Refuse every later submit and retry; return the queued jobs,
        parked on a backoff or not, for the shell to cancel."""
        self.closed = True
        return self.queue.drain()

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def arm(self, plan: "FaultPlan | None") -> None:
        """Draw each later attempt's faults from ``plan`` (None: none)."""
        self.plan = plan

    def health(self, depth: int) -> HealthState:
        """Classify the service from one read of its queue depth and the
        engines' failure records."""
        fraction = depth / self.queue.limit
        if fraction >= QUEUE_OVERLOADED_FRACTION:
            return HealthState.OVERLOADED
        if fraction >= QUEUE_DEGRADED_FRACTION or any(
            failures >= ENGINE_FAILURE_LIMIT
            for failures in self.failures.values()
        ):
            return HealthState.DEGRADED
        return HealthState.HEALTHY

    # -- rules -------------------------------------------------------------

    def _light(self, job: Job) -> bool:
        """Does ``job`` run in the service process?

        Only a warm, plain, sub-millisecond one: its price, the fastest
        clean run of its shape, is under ``LIGHT_SECONDS`` (a shape that has
        not run is priced ``math.inf``), so no guess can stall dispatch for
        a heavy query; it has no cross-check; its engine is not failing (a
        crashing engine runs in the pool until a run of it is clean); and
        the armed plan assigns its coming attempt no fault (a HANG must
        not pin the dispatcher, and a CRASH must kill a pool process, not
        the service).
        """
        return (
            job.predicted_seconds < LIGHT_SECONDS
            and self.failures.get(job.config.engine, 0) < ENGINE_FAILURE_LIMIT
            and self._verify_engine(job) is None
            and not self._faults(job)
        )

    def _faults(self, job: Job) -> "tuple | None":
        """The armed plan's faults for the job's coming attempt.

        Drawn once per attempt: a draw spends the plan's ``max_fires``
        budget, and the veto may ask about a queued job many times before
        ``_begin`` runs the attempt.  With no plan armed the job keeps
        what it has.
        """
        if self.plan is not None and not job.faults_drawn:
            job.faults = (
                self.plan.for_job(job.handle.job_id, job.attempts + 1) or None
            )
            job.faults_drawn = True
        return job.faults

    def _verify_engine(self, job: Job) -> str | None:
        """The engine this job is cross-checked on, if it is sampled.

        A pure function of the job id, so a replayed workload
        cross-checks exactly the same jobs regardless of scheduling.  The
        check runs on the event engine, the most independent
        implementation; event jobs are checked on codegen.
        """
        if self.verify_fraction <= 0.0:
            return None
        rng = random.Random(hash((0, job.handle.job_id)))
        if rng.random() >= self.verify_fraction:
            return None
        return "event" if job.config.engine != "event" else "codegen"

    def _begin(self, job: Job, where: str) -> None:
        """Start the job's next attempt ``where``: its faults (drawn here
        unless ``_light`` has; the next attempt draws anew), its attempt
        count, its cross-check engine and an in-flight slot."""
        self._faults(job)
        job.faults_drawn = False
        job.attempts += 1
        if job.verify_engine is None:
            job.verify_engine = self._verify_engine(job)
        job.where = where
        self.in_flight += 1
