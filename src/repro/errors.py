"""Exception hierarchy for the X-SET reproduction library.

Every error raised deliberately by this package derives from
:class:`XSetError`, so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class XSetError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphFormatError(XSetError):
    """An input graph is malformed (unsorted rows, bad indices, ...)."""


class PatternError(XSetError):
    """A pattern graph or matching plan is invalid."""


class PlanError(PatternError):
    """A matching plan could not be generated or compiled."""


class ConfigError(XSetError):
    """A hardware/simulator configuration is inconsistent."""


class SimulationError(XSetError):
    """The event-driven simulator reached an inconsistent state."""


class SchedulerError(SimulationError):
    """A task scheduler violated one of its structural invariants."""


class MemoryModelError(SimulationError):
    """The cache/DRAM model was asked to do something impossible."""


class ServiceError(XSetError):
    """The query service could not accept, run or deliver a job."""


class QueueFullError(ServiceError):
    """The service's bounded job queue is full (backpressure signal).

    Callers should retry later or shed load; the service never blocks a
    submitter waiting for queue space.
    """


class JobTimeoutError(ServiceError):
    """A job did not finish within the caller's ``result(timeout=)`` wait.

    The bound is the waiter's, not the job's: the job keeps running and
    a later ``result()`` can still return its report.
    """


class JobCancelledError(ServiceError):
    """The result of a cancelled job was requested."""


class WorkerCrashError(ServiceError):
    """A pool worker died while running a job (retries exhausted)."""


class FaultInjectionError(ServiceError):
    """A fault plan or spec is malformed (resilience test harness)."""


class ClusterError(ServiceError):
    """The sharded query cluster could not complete an operation."""


class CommError(ClusterError):
    """A cluster comm-layer failure (transport, framing, addressing)."""


class CommClosedError(CommError):
    """The peer is gone: connection refused, reset or listener closed."""


class CommTimeoutError(CommError):
    """A cluster request did not complete within its timeout."""


class InjectedCrashError(WorkerCrashError):
    """A deterministic injected worker crash (chaos testing).

    Subclasses :class:`WorkerCrashError` so the service's retry /
    breaker paths treat it exactly like a real dying worker.  Carries
    the fault ``site`` so the service can label its fault counters.
    """

    def __init__(self, site: str = "worker.run") -> None:
        super().__init__(f"injected worker crash at {site!r}")
        self.site = site

    def __reduce__(self):  # keep ``site`` across process-pool pickling
        return (type(self), (self.site,))
