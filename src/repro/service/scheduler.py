"""The service's job queue: one dispatch rule, cost-ranked with aging.

The queue is one bounded list of ``(cost key, push number, job)``, kept
sorted: shortest predicted job first, so one heavy clique
query stops blowing the p99 of hundreds of cheap triangle counts, and
identical predictions in submit order.  An **anti-starvation aging
bound** guarantees progress: the earliest-pushed job, once queued longer
than ``age_limit`` seconds, dispatches ahead of cheaper newcomers.

A job is pending exactly while it is in the list.  A pop, a cancel
(:meth:`JobQueue.remove`) and a shutdown drain each take it out, so the
list's length is the pending count and no flag has to agree with it.
A crash-retried job waiting out its backoff (``Job.not_before``, against
the caller-supplied clock, which keeps the tests sleep-free) stays put.

Backpressure is a typed error, never a blocking submit: a full queue
raises :class:`~repro.errors.QueueFullError` so callers can shed load.

The queue takes no lock of its own: its one owner in the service is the
dispatch core (:mod:`repro.service.core`), which the service calls only
under its one lock.
"""

from __future__ import annotations

import bisect
import itertools
from operator import itemgetter

from ..errors import QueueFullError
from .job import Job, JobHandle

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
        #: the pending jobs, sorted; push numbers give the arrival order
        self._entries: list[tuple[tuple, int, Job]] = []
        self._pushes = itertools.count()

    def push(self, job: Job) -> None:
        if len(self._entries) >= self.limit:
            raise QueueFullError(
                f"service queue is full ({self.limit} jobs pending); "
                f"retry later or raise queue_limit"
            )
        bisect.insort(
            self._entries, (job.cost_key(), next(self._pushes), job)
        )

    def pop(self, now: float, fits=None) -> Job | None:
        """Next runnable job, removed from the queue, or None.

        The earliest-pushed job goes first once it has waited
        ``age_limit`` seconds, unless it is parked on its retry backoff
        (``job.not_before`` still ahead of ``now``); otherwise the
        cheapest job not parked on backoff goes.  With ``fits``, a job it
        refuses is not handed out: it stays where it is and None is
        returned.
        """
        entries = self._entries
        if not entries:
            return None
        entry = min(entries, key=itemgetter(1))  # earliest pushed
        job = entry[2]
        if now - job.enqueued_at < self.age_limit or _parked(job, now):
            entry = next(
                (e for e in entries if not _parked(e[2], now)), None
            )
            if entry is None:
                return None
            job = entry[2]
        if fits is not None and not fits(job):
            return None
        entries.remove(entry)
        return job

    def remove(self, handle: JobHandle) -> Job | None:
        """Take the job of ``handle`` out of the queue: the job, or None
        when it is not queued (popped, drained or never pushed)."""
        for i, entry in enumerate(self._entries):
            if entry[2].handle is handle:
                del self._entries[i]
                return entry[2]
        return None

    def drain(self) -> list[Job]:
        """Remove and return every queued job, backoff or not.

        Shutdown path: unlike :meth:`pop` this never defers, so waiters
        of a job parked on its retry backoff are released too.
        """
        entries, self._entries = self._entries, []
        return [job for _, _, job in entries]

    def parked_until(self, now: float) -> float | None:
        """When the first job parked on its retry backoff at ``now`` gets
        runnable, or None when no job is parked."""
        return min(
            (
                e[2].not_before for e in self._entries
                if _parked(e[2], now)
            ),
            default=None,
        )

    def depth(self) -> int:
        """Queued jobs.  O(1): the list's length."""
        return len(self._entries)


def _parked(job: Job, now: float) -> bool:
    """Is ``job`` waiting out a retry backoff at ``now``?"""
    return job.not_before is not None and now < job.not_before
