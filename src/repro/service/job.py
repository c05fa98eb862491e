"""Job records and the user-facing :class:`JobHandle`.

A job is one ``graph_id × pattern × config`` query.  Submitting returns a
:class:`JobHandle` immediately; the handle is a future-like object with
status, a blocking ``result()``, and ``cancel()``, which succeeds exactly
while the job is still in the service's queue.  The internal :class:`Job`
record carries the scheduling bookkeeping (cost prediction, retry
backoff, attempt count) and never leaves the service.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import JobCancelledError, JobTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["JobStatus", "JobHandle", "Job"]


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"      # queued, not yet dispatched
    RUNNING = "running"      # dispatched: on a pool worker, or run by
                             # the dispatcher itself
    DONE = "done"            # result available (possibly from cache)
    FAILED = "failed"        # raised, retries exhausted
    CANCELLED = "cancelled"  # cancelled while queued

    @property
    def terminal(self) -> bool:
        return self not in (JobStatus.PENDING, JobStatus.RUNNING)


class JobHandle:
    """Future-like view of one submitted query."""

    def __init__(self, job_id: int, graph_id: str, pattern_name: str,
                 engine: str, cancel_cb: Callable[["JobHandle"], bool]):
        self.job_id = job_id
        self.graph_id = graph_id
        self.pattern_name = pattern_name
        self.engine = engine
        #: True when the result was served from the result cache
        self.from_cache = False
        #: worker attempts made (0 for cache hits, >1 after crash retries)
        self.attempts = 0
        self._status = JobStatus.PENDING
        self._report: "SimReport | None" = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._cancel_cb = cancel_cb

    # -- state transitions (service-internal) ------------------------------

    def _set_running(self) -> None:
        with self._lock:
            if not self._status.terminal:
                self._status = JobStatus.RUNNING

    def _requeue(self) -> None:
        with self._lock:
            if not self._status.terminal:
                self._status = JobStatus.PENDING

    def _finish(self, status: JobStatus,
                report: "SimReport | None" = None,
                error: BaseException | None = None) -> bool:
        """Move to a terminal state; returns False if already terminal."""
        with self._lock:
            if self._status.terminal:
                return False
            self._status = status
            self._report = report
            self._error = error
        self._done.set()
        return True

    # -- user API ----------------------------------------------------------

    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> bool:
        """Cancel if still queued.  Running jobs cannot be interrupted."""
        return self._cancel_cb(self)

    def exception(self) -> BaseException | None:
        """The failure, if the job reached a non-DONE terminal state."""
        self._done.wait()
        return self._error

    def result(self, timeout: float | None = None) -> "SimReport":
        """Block for the report; raise the job's failure if it has one.

        ``timeout`` bounds only this wait (raising
        :class:`~repro.errors.JobTimeoutError` on expiry); the job itself
        has no deadline and keeps running.
        """
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"job {self.job_id} ({self.pattern_name} on "
                f"{self.graph_id}) not finished within {timeout}s"
            )
        status = self.status
        if status is JobStatus.DONE:
            assert self._report is not None
            return self._report
        if status is JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        assert self._error is not None
        raise self._error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle(id={self.job_id}, {self.pattern_name} on "
            f"{self.graph_id!r}, {self.status.value})"
        )


@dataclass
class Job:
    """Internal scheduling record for one query (never leaves the service)."""

    handle: JobHandle
    graph_id: str
    fingerprint: str
    plan: "MatchingPlan"
    config: "SystemConfig"
    cache_key: Any
    seq: int = 0
    #: earliest dispatch time on the service clock (crash-retry backoff)
    not_before: float | None = None
    attempts: int = 0
    #: wall-clock dispatch timestamp of the current attempt
    dispatched_at: float = field(default=0.0)
    #: where the current attempt runs: "service" (in the service process,
    #: on the dispatcher or the submitting thread) or "pool" (one call to
    #: the service's executor, which in inline mode runs every job)
    where: str = ""
    #: registry record pinned at submit time (graph + payload snapshot)
    record: Any = None
    #: open ``service.job`` span when the service is traced (else None)
    span: Any = None
    #: open ``service.queued`` child span (closed at first dispatch)
    queued_span: Any = None
    #: half-open root-vertex range ``[lo, hi)`` restricting the search to
    #: embeddings rooted there (cluster shard subqueries); None = all roots
    root_range: "tuple[int, int] | None" = None
    #: cross-check engine sampled for this job (resilience layer)
    verify_engine: str | None = None
    #: fault specs assigned by the armed plan for the current attempt
    faults: Any = None
    #: True once ``faults`` holds the plan's draw for the coming attempt
    faults_drawn: bool = False
    #: predicted wall seconds from the cost model (0.0 = no prediction)
    predicted_seconds: float = 0.0
    #: the cost model's tier behind the prediction: "profile" (this shape
    #: has run on this snapshot), "throughput" or "prior"
    predicted_source: str = ""
    #: query feature vector used for the prediction (trains the predictor
    #: when the job completes); None when the adaptive layer is off
    features: Any = None
    #: service-clock timestamp of the most recent queue push (queue-wait
    #: accounting and the queue's anti-starvation aging bound)
    enqueued_at: float = 0.0

    def cost_key(self) -> tuple[float, int]:
        """Queue order: shortest predicted job first, then submit order —
        identical predictions dispatch first come, first served."""
        return (self.predicted_seconds, self.seq)
