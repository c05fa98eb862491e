"""Worker side of the service: run one job, cache graphs per process.

``run_job`` is the only function the service ever submits to an executor
— a pool's, or the in-process one its dispatcher runs light jobs on.  It
must stay a module-level callable (process pools pickle it by reference)
and its arguments must be cheap to serialise.  The graph travels one of
three ways, resolved here per worker process:

* a :class:`~repro.graph.store.SharedGraphRef` (process mode, default):
  the worker attaches to the registry's shared-memory segment and builds
  zero-copy array views — no CSR bytes are ever unpickled or duplicated;
* pickled payload bytes (process-mode fallback when shared memory is
  unavailable) — deserialised at most once per worker and fingerprint;
* the live :class:`CSRGraph` object (thread/inline modes and jobs the
  dispatcher runs itself — zero copies).

Resilience hooks (both default-off and free when unused):

* ``faults`` — the job's assigned :class:`~repro.resilience.FaultSpec`
  set, derived service-side from the armed seeded plan.  This is the
  one place a job's faults fire, all at site ``worker.run``: CRASH and
  HANG before the primary run, CORRUPT on its count after it;
  whatever actually fired ships home in ``report.notes["injected"]``.
* ``verify_engine`` — the sampled cross-check: the job is re-run on the
  event engine (codegen for an event job), untouched by the faults, and
  the exact embedding counts compared.  On a mismatch
  (silent corruption somewhere in the primary datapath) the *verified*
  report is returned instead, with both counts recorded in
  ``report.notes["crosscheck"]`` so the service can count a failure of
  the primary engine.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import TYPE_CHECKING

from ..graph.csr import CSRGraph
from ..graph.store import AttachedGraph, SharedGraphRef, attach_graph
from ..resilience.faults import FaultInjector, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SystemConfig
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = ["release_attachments", "run_job", "worker_graph_cache_info"]

#: per-process resolved graphs, keyed by graph_id.  One entry per id: an
#: updated snapshot (new fingerprint) replaces the old.  The third slot
#: holds the AttachedGraph keeping a shared-memory mapping alive, or None
#: for graphs that arrived as pickle bytes / live objects.
_GRAPH_CACHE: dict[str, tuple[str, CSRGraph, "AttachedGraph | None"]] = {}

#: deserialisations performed by this process (observability for tests)
_CACHE_FILLS = 0

#: shared-memory attachments performed by this process
_SHM_ATTACHES = 0

#: held across a resolve's check, fill and store: threads resolving one
#: new snapshot attach it once, instead of each attaching its own mapping
#: and dropping all but one unclosed
_GRAPH_LOCK = threading.Lock()


def _cache_graph(
    graph_id: str,
    fingerprint: str,
    graph: CSRGraph,
    holder: "AttachedGraph | None",
) -> None:
    old = _GRAPH_CACHE.get(graph_id)
    _GRAPH_CACHE[graph_id] = (fingerprint, graph, holder)
    if old is not None and old[2] is not None:
        # replaced an attached snapshot: release this process's mapping of
        # the retired segment (the creator-side unlink already happened or
        # will happen; close() frees our address space either way)
        old[2].close()


def release_attachments() -> None:
    """Forget and close this process's shared-memory attachments (at a
    service's shutdown); left open, each meets its graph's live views in
    ``SharedMemory.__del__`` at exit, which prints ``BufferError``."""
    with _GRAPH_LOCK:
        for graph_id in [g for g, e in _GRAPH_CACHE.items() if e[2]]:
            _GRAPH_CACHE.pop(graph_id)[2].close()


def _resolve_graph(
    graph_id: str,
    fingerprint: str,
    payload: "bytes | CSRGraph | SharedGraphRef",
) -> CSRGraph:
    global _CACHE_FILLS, _SHM_ATTACHES
    if isinstance(payload, CSRGraph):
        return payload
    with _GRAPH_LOCK:
        cached = _GRAPH_CACHE.get(graph_id)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        if isinstance(payload, SharedGraphRef):
            attached = attach_graph(payload)
            _SHM_ATTACHES += 1
            _cache_graph(graph_id, fingerprint, attached.graph, attached)
            return attached.graph
        graph = pickle.loads(payload)
        _CACHE_FILLS += 1
        _cache_graph(graph_id, fingerprint, graph, None)
        return graph


def _run_primary(
    graph: CSRGraph,
    plan: "MatchingPlan",
    config: "SystemConfig",
    observe_run: bool,
    roots=None,
) -> "SimReport":
    """Run the job's own engine, timed; under observation also traced
    and profiled.  No faults, no cross-check — the caller adds both."""
    from ..sim.host import run_on_soc

    if not observe_run:
        t0 = time.perf_counter()
        report = run_on_soc(graph, plan, config, roots=roots)
        report.wall_seconds = time.perf_counter() - t0
        return report

    from ..obs import build_profile, observe

    t0 = time.perf_counter()
    with observe() as ob:
        with ob.tracer.span(
            "worker.run_job",
            graph_id=graph.name,
            pattern=plan.pattern.name,
            engine=config.engine,
            pid=os.getpid(),
        ):
            report = run_on_soc(graph, plan, config, roots=roots)
    report.wall_seconds = time.perf_counter() - t0
    report.profile = build_profile(report, ob, engine=config.engine)
    return report


def run_job(
    graph_id: str,
    fingerprint: str,
    payload: "bytes | CSRGraph | SharedGraphRef",
    plan: "MatchingPlan",
    config: "SystemConfig",
    observe_run: bool = False,
    faults: "tuple[FaultSpec, ...] | None" = None,
    verify_engine: str | None = None,
    root_range: "tuple[int, int] | None" = None,
) -> "SimReport":
    """Execute one query on the configured engine; returns the report.

    With ``observe_run=True`` the run executes inside its own observation
    scope and the report comes back with an
    :class:`~repro.obs.profile.ExecutionProfile` attached — spans, per-level
    totals and the PE activity timeline all recorded worker-side and
    shipped home with the (picklable) report.
    """
    import numpy as np

    from ..sim.host import run_on_soc

    graph = _resolve_graph(graph_id, fingerprint, payload)
    # a half-open [lo, hi) root range ships as two ints and becomes the
    # engines' root-vertex array here, worker-side (cluster subqueries)
    roots = (
        None
        if root_range is None
        else np.arange(root_range[0], root_range[1], dtype=np.int32)
    )
    injector = FaultInjector(faults) if faults else None
    if injector is not None:
        # site "worker.run": CRASH raises a crash-shaped error the
        # service retries, HANG stalls this worker
        injector.fire("worker.run")
    report = _run_primary(graph, plan, config, observe_run, roots)
    if injector is not None:
        # CORRUPT: a soft error flips a bit of the primary's count
        injector.corrupt("worker.run", report)
        if injector.events:
            report.notes["injected"] = injector.events
    # the cross-check is the trusted independent recomputation, never
    # subject to the job's injections
    verify_report: "SimReport | None" = None
    if verify_engine is not None and verify_engine != config.engine:
        verify_report = run_on_soc(
            graph,
            plan,
            config.with_overrides(engine=verify_engine),
            roots=roots,
        )
    if verify_report is not None:
        mismatch = verify_report.embeddings != report.embeddings
        crosscheck = {
            "primary_engine": config.engine,
            "verify_engine": verify_engine,
            "primary_count": report.embeddings,
            "verify_count": verify_report.embeddings,
            "mismatch": mismatch,
        }
        if mismatch:
            # silent corruption detected: serve the independently computed
            # report; the service counts the mismatch as a failure of the
            # primary engine
            verify_report.notes.update(report.notes)
            report = verify_report
        report.notes["crosscheck"] = crosscheck
    return report


def worker_graph_cache_info() -> dict:
    """Snapshot of this process's graph cache (used by tests/debugging)."""
    return {
        "pid": os.getpid(),
        "graphs": sorted(_GRAPH_CACHE),
        "fills": _CACHE_FILLS,
        "attaches": _SHM_ATTACHES,
    }
