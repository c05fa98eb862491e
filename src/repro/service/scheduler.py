"""The service's job queue: one dispatch rule, cost-ranked with aging.

The queue is a bounded binary heap ordered by ``(predicted seconds,
submit seq)`` — shortest predicted job first, so one heavy clique query
stops blowing the p99 of hundreds of cheap triangle counts.  Jobs with identical predictions dispatch in
submit order, and an **anti-starvation aging bound** guarantees
progress: a job queued longer than ``age_limit`` seconds dispatches
ahead of cheaper newcomers (tracked in arrival order through a side
deque).

Backpressure is a typed error, never a blocking submit: a full queue
raises :class:`~repro.errors.QueueFullError` so callers can shed load
(the paper's "heavy traffic" framing demands the service itself stay
responsive).

Cancelled jobs are removed lazily (tombstoned), and crash-retried jobs
waiting out their backoff (``Job.not_before``) are deferred in place —
against the caller-supplied clock, which keeps every timing decision
injectable and the concurrency tests sleep-free.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque

from ..errors import QueueFullError
from .job import Job, JobStatus

__all__ = ["AGE_LIMIT_SECONDS", "JobQueue"]

#: a job queued longer than this (seconds on the service clock) dispatches
#: ahead of cheaper newcomers — bounds starvation of heavy jobs under a
#: stream of light ones
AGE_LIMIT_SECONDS = 2.0


class JobQueue:
    """Bounded cost-ranked queue of :class:`Job` records, with aging.

    ``policy`` names the one dispatch rule, ``"cost"``; any other value
    raises ``ValueError``.
    """

    def __init__(
        self,
        limit: int = 256,
        *,
        policy: str = "cost",
        age_limit: float = AGE_LIMIT_SECONDS,
    ) -> None:
        if policy != "cost":
            raise ValueError(
                f"unknown queue policy {policy!r}; available: cost"
            )
        self.limit = max(int(limit), 1)
        #: seconds after which a queued job outranks cheaper newcomers
        self.age_limit = age_limit
        self._heap: list[tuple[tuple, int, Job]] = []
        #: arrival-order view for the aging bound: ``(enqueued_at, job)``
        #: per push, so the entry of an earlier push of a requeued job is
        #: recognisably stale
        self._arrivals: deque[tuple[float, Job]] = deque()
        self._lock = threading.Lock()

    @staticmethod
    def _pending(job: Job) -> bool:
        return not job.taken and job.handle.status is JobStatus.PENDING

    def push(self, job: Job) -> None:
        with self._lock:
            # the heap also holds cancelled tombstones and jobs taken
            # through the aging path, so its length only bounds the
            # pending count: recount before rejecting
            if len(self._heap) >= self.limit and sum(
                1 for _, _, j in self._heap if self._pending(j)
            ) >= self.limit:
                raise QueueFullError(
                    f"service queue is full ({self.limit} jobs pending); "
                    f"retry later or raise queue_limit"
                )
            job.taken = False
            heapq.heappush(self._heap, (job.cost_key(), job.seq, job))
            self._arrivals.append((job.enqueued_at, job))

    def _take_starving(self, now: float, fits) -> tuple[str, Job] | None:
        """Arrival-order head older than the aging bound, if dispatchable.

        Called under the lock.  Prunes taken/finished heads, and entries
        of a job pushed again since, as it goes; returns ``("run", job)``
        for a starving runnable job (removed and marked taken) or
        ``("stay", job)`` for a runnable head that ``fits`` refuses.
        """
        while self._arrivals:
            stamp, job = self._arrivals[0]
            if stamp != job.enqueued_at or not self._pending(job):
                self._arrivals.popleft()
                continue
            if now - job.enqueued_at < self.age_limit:
                return None  # youngest-possible head is not starving yet
            if job.not_before is not None and now < job.not_before:
                return None  # parked on retry backoff; cannot jump ahead
            if fits is not None and not fits(job):
                return ("stay", job)
            self._arrivals.popleft()
            job.taken = True
            return ("run", job)
        return None

    def pop(self, now: float, fits=None) -> Job | None:
        """Next runnable job, or None.

        Skips cancelled tombstones and leaves jobs whose retry backoff
        (``job.not_before``) has not yet elapsed in the queue — both
        assessed lazily, at dispatch time, against the injected clock.
        A job queued past ``age_limit`` seconds dispatches first
        regardless of its predicted cost (anti-starvation).  With ``fits``, a next runnable job it refuses
        is not handed out: it stays queued as it was (key, ``seq``, place
        in the aging order) and None is returned.
        """
        deferred: list[Job] = []
        try:
            while True:
                with self._lock:
                    starving = self._take_starving(now, fits)
                if starving is not None:
                    verdict, job = starving
                    return job if verdict == "run" else None
                with self._lock:
                    if not self._heap:
                        return None
                    _, _, job = heapq.heappop(self._heap)
                if job.taken:
                    continue  # already handed out through the aging path
                if job.handle.status is not JobStatus.PENDING:
                    continue  # cancelled (or otherwise finished) while queued
                if job.not_before is not None and now < job.not_before:
                    deferred.append(job)  # backoff pending; stays queued
                    continue
                if fits is not None and not fits(job):
                    deferred.append(job)
                    return None
                job.taken = True
                return job
        finally:
            if deferred:
                with self._lock:
                    for job in deferred:
                        heapq.heappush(
                            self._heap, (job.cost_key(), job.seq, job)
                        )

    def drain(self) -> list[Job]:
        """Remove and return every still-pending job, backoff or not.

        Shutdown path: unlike :meth:`pop` this never defers, so waiters
        of a job parked on its retry backoff are released too.
        """
        with self._lock:
            heap, self._heap = self._heap, []
            self._arrivals.clear()
        return [job for _, _, job in heap if self._pending(job)]

    def depth(self) -> int:
        """Live (non-tombstoned) queued jobs."""
        with self._lock:
            return sum(1 for _, _, job in self._heap if self._pending(job))

    def __len__(self) -> int:
        return self.depth()
