"""`repro.service`: an async GPM query service over a worker pool.

SISA-style framing: graph pattern matching as a reusable *service*
surface rather than a one-shot kernel call.  The pieces:

* :class:`GraphRegistry` — register a :class:`~repro.graph.csr.CSRGraph`
  once, reference it by id; workers cache deserialised graphs per process.
* :class:`JobQueue` + dispatcher — bounded cost-ranked queue with an
  aging bound, deadlines, typed backpressure and crash retries
  (``repro.service.scheduler``).
* :class:`ResultCache` — LRU over ``(graph fingerprint, canonical pattern,
  config)``, invalidated/delta-patched on graph updates.
* :class:`QueryService` — the facade tying them together, with
  ``stats()`` introspection and process/thread/inline execution modes.

Quickstart::

    from repro.service import QueryService

    with QueryService(mode="process") as svc:
        gid = svc.register_graph(graph)
        handles = [svc.submit(gid, p, engine="batched") for p in patterns]
        reports = [h.result() for h in handles]
        print(svc.stats().summary())
"""

from .cache import CacheKey, ResultCache, pattern_cache_key
from .job import Job, JobHandle, JobStatus
from .registry import GraphRecord, GraphRegistry
from .scheduler import JobQueue
from .service import MODES, InlineExecutor, QueryService
from .stats import LatencyRecorder, ServiceStats

__all__ = [
    "CacheKey",
    "GraphRecord",
    "GraphRegistry",
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
