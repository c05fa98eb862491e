"""The service's job queue: one dispatch rule, cost-ranked with aging.

The queue is one bounded list of ``(cost key, push number, job)``, kept
sorted under one lock: shortest predicted job first, so one heavy clique
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
"""

from __future__ import annotations

import bisect
import itertools
import threading
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
        self._lock = threading.Lock()

    def push(self, job: Job) -> None:
        with self._lock:
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
        with self._lock:
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
        with self._lock:
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
        with self._lock:
            entries, self._entries = self._entries, []
        return [job for _, _, job in entries]

    def depth(self) -> int:
        """Queued jobs.  O(1) and lock-free: one read of the list."""
        return len(self._entries)


def _parked(job: Job, now: float) -> bool:
    """Is ``job`` waiting out a retry backoff at ``now``?"""
    return job.not_before is not None and now < job.not_before
