"""The watchdog: deadline enforcement for *running* jobs.

The job queue already reaps deadline-expired jobs while they are queued;
before this layer existed, a job that made it onto a worker ran to
completion no matter what — a hung engine call would pin a worker (and
its waiter) forever.  The :class:`Watchdog` closes that gap: the service
registers every dispatched job, a scan walks the table against the
service clock, and any running job past its deadline is *abandoned* —
removed from the table, its future cancelled best-effort, its waiters
finished with ``TIMEOUT`` by the service.

Ownership protocol
------------------
Exactly one party accounts for each running job: the completion callback
calls :meth:`unwatch` and proceeds only when the entry was still present;
:meth:`scan` removes expired entries atomically before handing them back.
Whichever side removes the entry owns the in-flight bookkeeping, so a
result arriving just as the watchdog fires is dropped instead of being
double-counted.

The scan is a plain method (deterministic tests drive it with a fake
clock); the optional background thread just calls it on an interval and
additionally asks the service to replace a broken worker pool.
"""

from __future__ import annotations

import logging
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from ..service.job import Job

__all__ = ["Watchdog"]

logger = logging.getLogger(__name__)

#: seconds between background scans
DEFAULT_INTERVAL = 0.05


class Watchdog:
    """Registry of running jobs + deadline scanning + optional thread."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._running: dict[int, tuple["Job", "Future | None"]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: jobs abandoned over the watchdog's lifetime
        self.abandoned = 0

    # -- registry ----------------------------------------------------------

    def watch(self, job: "Job") -> None:
        """Register a job about to be handed to a worker.

        Must happen *before* the executor submit so a synchronously
        completing future (inline mode) still finds its entry.
        """
        with self._lock:
            self._running[job.handle.job_id] = (job, None)

    def attach_future(self, job_id: int, future: "Future") -> None:
        """Record the worker future (no-op if the job already finished)."""
        with self._lock:
            entry = self._running.get(job_id)
            if entry is not None:
                self._running[job_id] = (entry[0], future)

    def unwatch(self, job_id: int) -> bool:
        """Completion-side claim: True iff the entry was still present."""
        with self._lock:
            return self._running.pop(job_id, None) is not None

    def running_ids(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._running))

    def __len__(self) -> int:
        with self._lock:
            return len(self._running)

    # -- scanning ----------------------------------------------------------

    def scan(self) -> list[tuple["Job", "Future | None"]]:
        """Remove and return every running job past its deadline.

        The caller (the service) owns the returned jobs' bookkeeping:
        releasing waiters with ``TIMEOUT``, freeing the in-flight slot
        and recording metrics.
        """
        now = self._clock()
        with self._lock:
            expired = [
                job_id
                for job_id, (job, _) in self._running.items()
                if job.deadline is not None and now > job.deadline
            ]
            out = [self._running.pop(job_id) for job_id in expired]
        for job, _ in out:
            self.abandoned += 1
            logger.warning(
                "watchdog abandoning job %d (%s on %s): running past "
                "its deadline",
                job.handle.job_id, job.handle.pattern_name, job.graph_id,
            )
        return out

    # -- background thread --------------------------------------------------

    def start(self, tick: Callable[[], None]) -> None:
        """Run ``tick`` every ``DEFAULT_INTERVAL`` seconds until
        :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop,
                args=(tick,),
                name="repro-service-watchdog",
                daemon=True,
            )
            self._thread.start()

    def _loop(self, tick: Callable[[], None]) -> None:
        while not self._stop.wait(DEFAULT_INTERVAL):
            try:
                tick()
            except Exception:  # pragma: no cover - defensive
                logger.exception("watchdog tick failed")

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._thread = None
