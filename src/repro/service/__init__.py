"""`repro.service`: an async GPM query service over a worker pool.

SISA-style framing: graph pattern matching as a reusable *service*
surface rather than a one-shot kernel call.  The pieces:

* :class:`GraphRegistry` — register a :class:`~repro.graph.csr.CSRGraph`
  once, reference it by id; workers cache deserialised graphs per process.
* :class:`JobQueue` — bounded cost-ranked queue with an aging bound and
  typed backpressure (``repro.service.scheduler``), owned by the dispatch
  core, ``DispatchState`` (``repro.service.core``): where and when each
  job runs, crash retries and the :class:`HealthState` classification.
* :class:`ResultCache` — LRU over ``(graph fingerprint, canonical pattern,
  config)``, invalidated/delta-patched on graph updates.
* :class:`QueryService` — the facade tying them together, with
  ``stats()`` introspection and two execution modes: ``process`` (a
  process pool, light jobs in the service process) and ``inline`` (every
  job on the submitting thread).

Quickstart::

    from repro.service import QueryService

    with QueryService(mode="process") as svc:
        gid = svc.register_graph(graph)
        handles = [svc.submit(gid, p, engine="codegen") for p in patterns]
        reports = [h.result() for h in handles]
        print(svc.stats().summary())
"""

from .cache import CacheKey, ResultCache, pattern_cache_key
from .core import HealthState
from .job import Job, JobHandle, JobStatus
from .registry import GraphRecord, GraphRegistry
from .scheduler import JobQueue
from .service import MODES, InlineExecutor, QueryService
from .stats import HealthReport, LatencyRecorder, ServiceStats

__all__ = [
    "CacheKey",
    "GraphRecord",
    "GraphRegistry",
    "HealthReport",
    "HealthState",
    "InlineExecutor",
    "Job",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "LatencyRecorder",
    "MODES",
    "QueryService",
    "ResultCache",
    "ServiceStats",
    "pattern_cache_key",
]
