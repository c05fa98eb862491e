"""The :class:`QueryService`: async GPM queries over a worker pool.

This is the process-level analogue of the X-SET scheduler: independent
jobs (``graph_id × pattern × config``) flow through a bounded cost-ranked
queue into a pool of workers, with no barrier between jobs — exactly the
barrier-free philosophy of the hardware, lifted to Python processes.

Execution modes
---------------
``process``
    ``ProcessPoolExecutor`` — true parallelism for CPU-bound engine runs.
    A job carries a :class:`~repro.graph.store.SharedGraphRef`; each
    worker attaches once to the registry's shared-memory segment and
    reads the graph through zero-copy views (pickled bytes only where
    shared memory is unavailable; see :mod:`repro.service.worker`).
``inline``
    Synchronous execution inside ``submit`` — deterministic, used by tests
    and as the zero-overhead mode for single queries.

Where and when each job runs is decided by one thread-free state
machine, :class:`~repro.service.core.DispatchState`; this module is its
shell.  The shell owns the lock around it, the dispatcher thread and the
executor, and applies each answer: it runs a job (``_launch``), ends one
(``_settle``), and emits the spans, counts, cache fills and cost-model
training that go with it.  Every job that runs is started by
``DispatchState.admit`` ("run here") or by ``DispatchState.next``, whose
one loop is ``_pump``.

In process mode a warm, plain, sub-millisecond job runs in the
service process, against the live graph, with no round trip to a worker:
on the thread that submitted it when the service is idle, so it has
settled when ``submit`` returns, and otherwise on the dispatcher thread.
Every other job is queued, and the dispatcher sends it to the pool as one
call.  A traced job's ``service.job`` span records the choice as its
``where`` attribute (``service`` or ``pool``, or ``patch`` for a stale
cache entry patched on the submitting thread, see
:meth:`QueryService.dynamic_session`).

Every job event has one record: outcomes, retries and cache traffic are
the ``repro_*_total`` counters, an engine's crashes and wrong results
since its last clean run are :meth:`QueryService.health`'s
``engine_failures``, and the rest is the span tree.

Semantics
---------
* **Backpressure**: a full queue raises ``QueueFullError`` — submits never
  block.
* **No deadlines, no priority classes**: a dispatched job runs to
  completion; ``JobHandle.result(timeout=)`` bounds only the caller's
  wait.
* **Dispatch order**: cost-ranked, with an aging bound
  (:mod:`repro.service.scheduler`); there is no other order.
* **Retries and failing engines**: crash-shaped failures (a dying worker
  or broken pool) are retried on the same engine in a fresh worker, and
  an engine that keeps failing runs in the pool until a run of it is
  clean (``DispatchState.done``); deterministic engine exceptions
  propagate immediately.  A job always runs on the engine its config
  names.
* **Caching**: results are cached by ``(graph fingerprint, canonical
  pattern, config)`` with LRU eviction; graph updates invalidate entries,
  and an edge write through :meth:`QueryService.dynamic_session` keeps
  them, to be delta-patched on their first read.

The clock and sleep functions are injectable so every timing-dependent
code path is testable without real sleeps.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.config import SystemConfig, xset_default
from ..core.incremental import IncrementalGPM, edge_delta
from ..errors import (
    InjectedCrashError,
    QueueFullError,
    ServiceError,
    WorkerCrashError,
)
from ..obs import MetricsRegistry, Observation, Tracer
from ..obs.export import chrome_trace_events, write_chrome_trace
from ..patterns.plan import build_plan
from ..sched.adaptive import CostPredictor, QueryFeatures
from .cache import CacheKey, ResultCache, Stale, pattern_cache_key
from .core import DispatchState, HealthState, Outcome, Requeue

# the dispatch rules' constants live with the rules; they are re-exported
# here, where callers and the docs have always found them (tests patch
# them on ``core``, which reads them)
from .core import (  # noqa: F401
    ENGINE_FAILURE_LIMIT,
    LIGHT_SECONDS,
    MAX_RETRIES,
    RETRY_BACKOFF_SECONDS,
)
from .job import Job, JobHandle, JobStatus
from .registry import GraphRegistry
from .stats import HealthReport, LatencyRecorder, ServiceStats, Tally
from .worker import release_attachments, run_job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph
    from ..obs import ExecutionProfile
    from ..patterns.pattern import Pattern
    from ..resilience import FaultPlan
    from ..sim.report import SimReport

__all__ = ["QueryService", "InlineExecutor", "MODES"]

logger = logging.getLogger(__name__)

#: accepted values for ``QueryService(mode=...)``
MODES = ("process", "inline")

#: exception types treated as "the worker died" → retried with backoff
_CRASH_TYPES = (BrokenExecutor, WorkerCrashError)

#: finished spans retained by a traced service (most recent history)
TRACE_SPAN_LIMIT = 20_000

#: execution profiles retained by a traced service
PROFILE_LIMIT = 256


class InlineExecutor:
    """Executor running submissions synchronously (tests, single queries)."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirrored to the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        pass


def _shape(job: Job) -> QueryFeatures:
    """The cost record's key for ``job``, less its engine."""
    return QueryFeatures(job.fingerprint, job.cache_key.pattern_key)


class QueryService:
    """Async GPM query service: registry + scheduler + pool + cache."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        mode: str = "process",
        max_workers: int | None = None,
        queue_limit: int = 256,
        cache_capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        executor=None,
        start_paused: bool = False,
        observability: bool = False,
        verify_fraction: float = 0.0,
    ) -> None:
        if mode not in MODES:
            raise ServiceError(
                f"unknown service mode {mode!r}; available: "
                f"{', '.join(MODES)}"
            )
        self.mode = mode
        self.config = config or xset_default()
        if max_workers is None:
            max_workers = 1 if mode == "inline" else (os.cpu_count() or 1)
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._clock = clock
        self._sleep = sleep
        self._executor = executor
        self._owns_executor = executor is None
        self._registry = GraphRegistry()
        self._cache = ResultCache(cache_capacity)
        #: every dispatch decision; called only under ``_cond``
        self._core = DispatchState(
            queue_limit,
            max_workers,
            in_process=mode != "inline",
            verify_fraction=verify_fraction,
            paused=start_paused,
        )
        # metrics always exist (they are cheap, per-job bookkeeping);
        # span tracing + per-query profiling is opt-in via observability=
        self.metrics = MetricsRegistry()
        self._tally = Tally(self.metrics)
        self._latency = LatencyRecorder(registry=self.metrics)
        #: each shape's fastest clean run; its price drives cost-ranked
        #: dispatch and the light-job test
        self.predictor = CostPredictor(registry=self.metrics)
        self._observation: Observation | None = (
            Observation(
                registry=self.metrics,
                tracer=Tracer(max_spans=TRACE_SPAN_LIMIT),
            )
            if observability
            else None
        )
        self._profiles: deque["ExecutionProfile"] = deque(
            maxlen=PROFILE_LIMIT
        )
        self._job_ids = itertools.count(1)
        self._cond = threading.Condition()
        self._dispatcher: threading.Thread | None = None
        self._dispatcher_stuck = False
        #: ``(config key, engine)`` → the one overridden config submits share
        self._engine_configs: dict[tuple, SystemConfig] = {}
        #: set on a thread while it runs the inline ``_pump``
        self._pumping = threading.local()

    # -- graph registry ----------------------------------------------------

    def register_graph(
        self, graph: "CSRGraph", graph_id: str | None = None
    ) -> str:
        """Register ``graph`` once; jobs then reference it by the id."""
        return self._registry.register(graph, graph_id)

    def update_graph(self, graph_id: str, graph: "CSRGraph") -> int:
        """Swap in a new snapshot for ``graph_id``.

        Cached results of the previous snapshot are invalidated; returns
        how many entries were dropped.  Jobs already queued keep running
        against the snapshot captured at submit time.
        """
        old_fp, _ = self._registry.update(graph_id, graph)
        return len(self._cache.invalidate_fingerprint(old_fp))

    def unregister_graph(self, graph_id: str) -> int:
        """Drop ``graph_id``: unlink its shared segment, evict its cache.

        Jobs already queued against the graph keep the record pinned and
        may still fail with a not-found attach — unregister is a statement
        that the graph is gone, not a graceful drain.  Returns the number
        of cache entries dropped.
        """
        record = self._registry.get(graph_id)
        dropped = len(self._cache.invalidate_fingerprint(record.fingerprint))
        self._registry.unregister(graph_id)
        return dropped

    def graphs(self) -> tuple[str, ...]:
        return self._registry.ids()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        graph_id: str,
        pattern: "Pattern",
        *,
        induced: bool | None = None,
        engine: str | None = None,
        config: SystemConfig | None = None,
        use_cache: bool = True,
    ) -> JobHandle:
        """Enqueue one query; returns immediately with a :class:`JobHandle`.

        The exception is a warm light job on an idle service, which runs
        here and has settled by the time its handle is returned (the idle
        rule, ``DispatchState.admit``).  Jobs dispatch cheapest predicted
        first (see :mod:`repro.service.scheduler`).  ``engine`` /
        ``config`` override the service defaults for this job only.
        Raises :class:`~repro.errors.QueueFullError` under backpressure
        and :class:`~repro.errors.ServiceError` after :meth:`shutdown`.
        """
        if self._core.closed:  # early and cheap; ``admit`` is the check
            raise ServiceError("service has been shut down")
        job = self._resolve(graph_id, pattern, induced, engine, config)
        if use_cache:
            cached = self._cache.get(job.cache_key)
            if cached is None:
                self._tally.count("cache_misses")
                stale = self._cache.take_stale(job.cache_key)
                if stale is not None:
                    self._patch(job, stale)
                    return job.handle
            else:
                job.handle.from_cache = True
                if job.span is not None:
                    job.span.set_attr("cache_hit", True)
                self._tally.count("submitted")
                self._settle(job, JobStatus.DONE, report=cached)
                return job.handle
        with self._cond:
            # accepted only once the core took it (QueueFullError and,
            # after shutdown, ServiceError propagate), and counted before
            # anything downstream of the queue can count the same job
            here = self._core.admit(job, self._clock())
            self._tally.count("submitted")
            if not here:
                if job.span is not None:
                    job.queued_span = self._observation.tracer.start_span(
                        "service.queued", parent=job.span
                    )
                self._cond.notify_all()
        if here:
            self._launch(job)
        if not job.handle.done():
            # queued, or run here and requeued after a crash
            self._kick()
        return job.handle

    def _resolve(
        self,
        graph_id: str,
        pattern: "Pattern",
        induced: bool | None,
        engine: str | None,
        config: SystemConfig | None,
    ) -> Job:
        """Everything a submission is before it is decided on: the pinned
        graph snapshot, the concrete engine and config, the plan, the cost
        prediction, the cache key, the handle and (when traced) the open
        ``service.job`` span — one not-yet-queued :class:`Job`."""
        record = self._registry.get(graph_id)
        cfg = config or self.config
        if engine is not None and engine != cfg.engine:
            key = (cfg.cache_key(), engine)
            cfg = self._engine_configs.get(key) or (
                self._engine_configs.setdefault(
                    key, cfg.with_overrides(engine=engine)
                )
            )
        plan = build_plan(pattern, induced=induced)
        pkey = pattern_cache_key(pattern, induced)
        handle = JobHandle(
            job_id=next(self._job_ids),
            graph_id=graph_id,
            pattern_name=pattern.name,
            engine=cfg.engine,
            cancel_cb=self._cancel,
        )
        ob = self._observation
        job = Job(
            handle=handle,
            graph_id=graph_id,
            fingerprint=record.fingerprint,
            plan=plan,
            config=cfg,
            cache_key=CacheKey(
                fingerprint=record.fingerprint,
                pattern_key=pkey,
                config_key=cfg.cache_key(),
            ),
            seq=handle.job_id,  # submit order
            record=record,  # snapshot pinned at submit time
            span=(
                ob.tracer.start_span(
                    "service.job",
                    graph_id=graph_id,
                    pattern=pattern.name,
                    engine=cfg.engine,
                    job_id=handle.job_id,
                )
                if ob is not None
                else None
            ),
        )
        job.predicted_seconds = self.predictor.predict(_shape(job), cfg.engine)
        return job

    def count(
        self, graph_id: str, pattern: "Pattern", **submit_kwargs
    ) -> "SimReport":
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(graph_id, pattern, **submit_kwargs).result()

    def count_many(
        self,
        graph_id: str,
        patterns: Sequence["Pattern"],
        **submit_kwargs,
    ) -> dict[str, "SimReport"]:
        """Batch entry point: submit every pattern, gather all reports."""
        handles = [
            self.submit(graph_id, p, **submit_kwargs) for p in patterns
        ]
        return {
            p.name: h.result() for p, h in zip(patterns, handles)
        }

    # -- dynamic graphs ----------------------------------------------------

    def dynamic_session(
        self,
        graph_id: str,
        pattern: "Pattern",
        induced: bool | None = None,
    ) -> IncrementalGPM:
        """An :class:`IncrementalGPM` wired to this service's cache.

        Every ``insert_edge``/``remove_edge`` re-registers the updated
        snapshot under ``graph_id`` and moves the old snapshot's
        whole-graph entries to the new fingerprint.  Entries for *this*
        pattern are re-cached at once with the incrementally maintained
        exact count.  Every other one is kept as a :class:`Stale` entry
        holding the edit and the new snapshot: its first read misses, and
        ``submit`` serves it on the caller's thread as the old count plus
        :func:`edge_delta` of the edit (the pattern's runs seeded with the
        edited pair, on the snapshot whose derived indexes the edit
        spliced), caches that and settles the job with
        ``from_cache=False``.  A second write before that read drops the
        stale entry.  A patched report's timing and work fields are the
        stale run's, so treat them as approximate; it does not train the
        cost record.
        """
        record = self._registry.get(graph_id)
        pkey = pattern_cache_key(pattern, induced)
        held = record.graph  # the session's snapshot before each write

        def on_update(gpm: IncrementalGPM, u, v, inserted, delta) -> None:
            nonlocal held
            before, held = held, gpm.snapshot()
            registered = self._registry.get(graph_id).graph
            old_fp, new_fp = self._registry.update(graph_id, held)
            # the old entries answer for the registered graph: the edit
            # patches them only if that is the graph it edited
            edit = (held, u, v, inserted)
            for key, entry in self._cache.invalidate_fingerprint(old_fp):
                if isinstance(entry, Stale):  # already one edit behind
                    continue
                key = key.with_fingerprint(new_fp)
                if key.pattern_key == pkey:
                    self._cache.put(
                        key, replace(entry, embeddings=gpm.count)
                    )
                elif registered is before:
                    self._cache.put(key, Stale(entry, *edit))

        return IncrementalGPM(
            record.graph, pattern, induced=induced, on_update=on_update
        )

    def _patch(self, job: Job, stale: Stale) -> None:
        """Serve ``job`` from the stale entry of its key: the stale count
        moved by the edit's :func:`edge_delta`, computed here, cached and
        settled as a run (``from_cache`` stays False)."""
        delta = edge_delta(stale.snapshot, stale.u, stale.v, job.plan)
        report = replace(
            stale.report,
            embeddings=stale.report.embeddings
            + (delta if stale.inserted else -delta),
        )
        self._cache.put(job.cache_key, report)
        if job.span is not None:
            job.span.set_attr("where", "patch")
        self._tally.count("submitted")
        self._tally.count("cache_patched")
        self._settle(job, JobStatus.DONE, report=report)

    # -- scheduling internals ----------------------------------------------

    def _settle(
        self,
        job: Job,
        status: JobStatus,
        *,
        report: "SimReport | None" = None,
        error: BaseException | None = None,
    ) -> bool:
        """Move a job to its terminal ``status`` — the one place that does.

        Closes the job's spans, finishes the handle (releasing its
        waiters) and bumps the outcome's count.  Returns False, having
        counted nothing, when the handle was already terminal.  Callable
        from any thread: the submitter, the dispatcher, the executor's
        callback thread and a cancelling caller all end jobs here.
        """
        handle = job.handle
        ob = self._observation
        if ob is not None and job.span is not None:
            # spans close before the waiters wake, so a trace exported
            # right after result() already holds this job (queued child
            # first)
            if job.queued_span is not None:
                ob.tracer.end_span(job.queued_span)
                job.queued_span = None
            job.span.set_attr("outcome", status.value)
            job.span.set_attr("attempts", job.attempts)
            ob.tracer.end_span(job.span)
            job.span = None
        with self._cond:
            # finished and counted under the lock stats() takes: whoever
            # result() wakes finds this job already in the counts
            if not handle._finish(status, report, error):
                return False
            # a cache hit completes a job without a worker completing it
            self._tally.count(
                "cache_hits" if handle.from_cache else status.value
            )
        if status is not JobStatus.DONE:
            logger.log(
                logging.ERROR if status is JobStatus.FAILED else logging.INFO,
                "job %d (%s on %s) %s%s",
                handle.job_id, handle.pattern_name, handle.graph_id,
                status.value, f": {error}" if error is not None else "",
            )
        return True

    def _cancel(self, handle: JobHandle) -> bool:
        with self._cond:
            job = self._core.cancel(handle)
        return job is not None and self._settle(job, JobStatus.CANCELLED)

    def pause(self) -> None:
        """Stop dispatching; queued jobs accumulate (tests, maintenance)."""
        with self._cond:
            self._core.pause()

    def resume(self) -> None:
        with self._cond:
            self._core.resume()
            self._cond.notify_all()
        self._kick()

    def _make_executor(self):
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return InlineExecutor()

    def _get_executor(self):
        with self._cond:
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def _rebuild_executor_if_broken(self) -> None:
        """Replace a broken process pool so retries land on live workers."""
        if not self._owns_executor:
            return
        with self._cond:
            executor = self._executor
            if executor is None or not getattr(executor, "_broken", False):
                return
            self._executor = None
        executor.shutdown(wait=False)

    def _kick(self) -> None:
        """Have queued jobs started.  Inline mode has no dispatcher: the
        caller's thread pumps them, now.  Process mode starts the
        dispatcher thread on first use; it pumps until shutdown, woken
        through ``_cond`` by whoever changed what ``next`` would say."""
        if self.mode == "inline":
            if not getattr(self._pumping, "on", False):  # not re-entered
                self._pumping.on = True
                try:
                    self._pump()
                finally:
                    self._pumping.on = False
            return
        with self._cond:
            if self._dispatcher is not None or self._core.closed:
                return
            self._dispatcher = threading.Thread(
                target=self._pump,
                name="repro-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _pump(self) -> None:
        """The one loop that starts queued jobs: it runs every job
        ``DispatchState.next`` begins through ``_launch``.

        In inline mode it runs on the caller's thread until nothing is
        left to start; when only jobs on a retry backoff remain, it sleeps
        (the injected ``sleep``) to the core's wake time, since no other
        thread would start them.  In process mode it is the dispatcher
        thread: it waits on ``_cond`` until notified or until the wake
        time, and returns at shutdown.
        """
        inline = self.mode == "inline"
        now = self._clock()
        while True:
            with self._cond:
                act = self._core.next(now)
                while not (inline or isinstance(act, Job)):
                    if self._core.closed:
                        return
                    self._cond.wait(None if act is None else act - now)
                    now = self._clock()
                    act = self._core.next(now)
            if isinstance(act, Job):
                self._launch(act)
                now = self._clock()
            elif act is None:
                return
            else:
                self._sleep(act - now)
                now = act

    def _launch(self, job: Job) -> None:
        """Run a job the core has begun, where it put it: on this thread
        (it has settled, or been requeued, when this returns), or as one
        pool call.  Either way it is one :func:`run_job` through an
        executor, whose future ends the attempt in ``_on_done``.  The one
        routine that starts a job: ``submit`` applies the core's "run
        here" through it, ``_pump`` every job ``next`` begins."""
        job.handle.attempts = job.attempts
        job.handle._set_running()
        job.dispatched_at = time.perf_counter()
        self._latency.record_queue_wait(
            max(self._clock() - job.enqueued_at, 0.0)
        )
        ob = self._observation
        if ob is not None and job.span is not None:
            if job.queued_span is not None:
                ob.tracer.end_span(job.queued_span)
                job.queued_span = None
            if job.verify_engine is not None:
                job.span.set_attr("verify_engine", job.verify_engine)
            job.span.set_attr("where", job.where)
        here = job.where == "service"
        if not here:
            self._tally.count("worker_calls")
        try:
            future = (
                InlineExecutor() if here else self._get_executor()
            ).submit(
                run_job,
                job.graph_id,
                job.fingerprint,
                # the live graph in this process; across the process
                # boundary a SharedGraphRef the worker attaches to (pickle
                # bytes when shared memory is off)
                job.record.graph if here or self.mode == "inline"
                else job.record.ship(),
                job.plan,
                job.config,
                observe_run=self._observation is not None,
                faults=job.faults,
                verify_engine=job.verify_engine,
            )
        except BaseException as exc:  # pool already broken at submit time
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(lambda f: self._on_done(job, f))

    def _on_done(self, job: Job, future: Future) -> None:
        """The one place an attempt ends: the shell classifies it, the
        core decides (``DispatchState.done``), and the verdict — a
        settle, or a retry already back in the queue — is applied here."""
        report = error = None
        notes: dict = {}
        if future.cancelled():
            # the executor dropped the job (e.g. cancel_futures on
            # shutdown); release waiters instead of hanging them forever
            outcome = Outcome.CANCELLED
        elif (error := future.exception()) is None:
            report = future.result()
            notes = getattr(report, "notes", None) or {}
            mismatch = (notes.get("crosscheck") or {}).get("mismatch")
            outcome = Outcome.WRONG if mismatch else Outcome.OK
        elif isinstance(error, _CRASH_TYPES):
            outcome = Outcome.CRASH
            # before the retry can be popped: it must land on live workers
            self._rebuild_executor_if_broken()
            if isinstance(error, InjectedCrashError):
                # the worker died before it could ship notes home; count
                # the injected crash from the typed error's site instead
                notes = {"injected": {f"{error.site}:crash": 1}}
        else:
            outcome = Outcome.ERROR
        for key, n in (notes.get("injected") or {}).items():
            site, _, kind = key.partition(":")
            self._tally.count("faults_injected", n, site=site, kind=kind)
        with self._cond:
            verdict = self._core.done(job, outcome, self._clock(), error)
            requeued = isinstance(verdict, Requeue)
            # a retry is counted once decided, also when the queue refused
            # it, and before the dispatcher can pop it
            retried = requeued or isinstance(verdict.error, QueueFullError)
            if retried:
                self._tally.count("retries")
            if requeued:
                job.handle._requeue()
                if self._observation is not None and job.span is not None:
                    job.queued_span = self._observation.tracer.start_span(
                        "service.queued", parent=job.span, retry=job.attempts
                    )
            # a freed slot matters to the dispatcher only when a job waits
            # for it: otherwise, as after every run on a submitting thread,
            # the wake-up would only contend for the GIL
            if self._core.queue.depth():
                self._cond.notify_all()
        if retried:
            logger.warning(
                "job %d (%s on %s) crashed on attempt %d, retrying: %s",
                job.handle.job_id, job.handle.pattern_name,
                job.graph_id, job.attempts, error,
            )
        if requeued:
            if self.mode == "inline":
                # no dispatcher: a future that failed after submit returned
                # is retried only if this thread pumps it
                self._kick()
            return
        if verdict.status is not JobStatus.DONE:
            self._settle(job, verdict.status, error=verdict.error)
            return
        crosscheck = notes.get("crosscheck")
        if outcome is Outcome.WRONG:
            logger.error(
                "job %d cross-check mismatch: %s counted %s but "
                "%s counted %s; serving the verified report",
                job.handle.job_id,
                crosscheck.get("primary_engine"),
                crosscheck.get("primary_count"),
                crosscheck.get("verify_engine"),
                crosscheck.get("verify_count"),
            )
        if crosscheck is not None:
            self._tally.count(
                "crosschecks",
                result="mismatch" if outcome is Outcome.WRONG else "match",
            )
        clean = outcome is Outcome.OK and not notes.get("injected")
        if clean:
            # mismatched or fault-perturbed reports must not poison the
            # cache: their counts or timings are not what a clean run of
            # the submitted (engine, config) would yield
            self._cache.put(job.cache_key, report)
        profile = getattr(report, "profile", None)
        ob = self._observation
        if ob is not None and profile is not None:
            # a pool process has its own perf_counter origin, so its spans
            # are re-anchored at the dispatch timestamp; runs in this
            # process (dispatcher, submitter or inline) share its clock
            ob.tracer.ingest(
                profile.spans,
                parent=job.span,
                align_to=(
                    job.dispatched_at
                    if job.where == "pool" and self.mode == "process"
                    else None
                ),
            )
            self._profiles.append(profile)
        elapsed = time.perf_counter() - job.dispatched_at
        if not self._settle(job, JobStatus.DONE, report=report):
            return
        self._latency.record(job.config.engine, elapsed)
        if clean and job.verify_engine is None:
            # clean single-engine run: valid training data for the
            # cost record (cross-checked jobs time two engines;
            # fault-perturbed timings are noise).  The record means run
            # time: the worker's own measurement where the report
            # carries one, since dispatch-to-settle also holds the pool
            # round trip.  Only a measured shape's price has an accuracy
            ran = getattr(report, "wall_seconds", 0.0) or elapsed
            self.predictor.observe(_shape(job), job.config.engine, ran)
            if job.predicted_seconds < math.inf:
                self.predictor.record_accuracy(job.predicted_seconds, ran)

    # -- resilience --------------------------------------------------------

    def arm_faults(self, plan: "FaultPlan | None") -> None:
        """Arm (or, with None, disarm) a seeded fault plan for chaos runs.

        Each subsequent dispatch asks the plan which faults apply to that
        ``(job_id, attempt)`` and ships the specs to a pool worker (a job
        with any never runs in the service process); with no plan armed the
        dispatch path is one ``is None`` check and the worker path is
        byte-identical to normal operation.
        """
        with self._cond:
            self._core.arm(plan)

    def health(self) -> HealthReport:
        """Point-in-time degradation report (state + counters)."""
        total = self._tally.total
        with self._cond:
            # one read of the depth, so the state is that of the depth
            # reported
            depth = self._core.queue.depth()
            return HealthReport(
                state=self._core.health(depth),
                queue_depth=depth,
                queue_limit=self._core.queue.limit,
                in_flight=self._core.in_flight,
                engine_failures=dict(self._core.failures),
                crosscheck_mismatches=total("crosschecks", "mismatch"),
                faults_injected=total("faults_injected"),
                dispatcher_stuck=self._dispatcher_stuck,
            )

    # -- introspection / lifecycle -----------------------------------------

    def stats(self) -> ServiceStats:
        """Point-in-time snapshot of queue, pool, cache and latencies."""
        total = self._tally.total
        # one consistent read: _settle finishes and counts a job under
        # _cond, and the depth is read once (see health())
        with self._cond:
            depth = self._core.queue.depth()
            health = self._core.health(depth)
            self.metrics.gauge(
                "repro_queue_depth", "jobs currently queued"
            ).set(depth)
            self.metrics.gauge(
                "repro_in_flight", "jobs currently on workers"
            ).set(self._core.in_flight)
            self.metrics.set_state_gauge(
                "repro_health_state",
                "service degradation state (1 = current)",
                health.name.lower(),
                [s.name.lower() for s in HealthState],
            )
            return ServiceStats(
                mode=self.mode,
                workers=self.max_workers,
                graphs=len(self._registry),
                queue_depth=depth,
                in_flight=self._core.in_flight,
                submitted=total("submitted"),
                # a cache hit completes a job without a worker doing so
                completed=total("done") + total("cache_hits"),
                failed=total("failed"),
                cancelled=total("cancelled"),
                retries=total("retries"),
                crosscheck_mismatches=total("crosschecks", "mismatch"),
                faults_injected=total("faults_injected"),
                health=health.name.lower(),
                dispatcher_stuck=self._dispatcher_stuck,
                worker_calls=total("worker_calls"),
                queue_wait=self._latency.queue_wait_summary(),
                predictor=self.predictor.snapshot(),
                cache_size=len(self._cache),
                cache_hits=self._cache.hits,
                cache_misses=self._cache.misses,
                cache_evictions=self._cache.evictions,
                cache_invalidations=self._cache.invalidations,
                cache_patched=total("cache_patched"),
                cache_hit_rate=self._cache.hit_rate,
                latency=self._latency.summary(),
                metrics=self.metrics.snapshot(),
            )

    @property
    def observability(self) -> bool:
        """True when span tracing / profiling was enabled at construction."""
        return self._observation is not None

    def metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        self.stats()  # refresh the queue/in-flight gauges first
        return self.metrics.render_prometheus()

    def profiles(self) -> list["ExecutionProfile"]:
        """Recent :class:`ExecutionProfile`\\ s (newest last, bounded)."""
        return list(self._profiles)

    def export_trace(self, path: str | None = None) -> "list[dict] | None":
        """Write (or return) the unified Chrome/Perfetto trace.

        With ``path`` the trace JSON is written there and None is returned;
        without it the raw event list comes back.  Raises
        :class:`~repro.errors.ServiceError` when tracing is disabled.
        """
        if self._observation is None:
            raise ServiceError(
                "tracing is disabled; construct the service with "
                "observability=True"
            )
        # finished spans and PE activity events, the trace's two inputs
        sources = (
            self._observation.tracer.finished(),
            [event for prof in self._profiles for event in prof.pe_events],
        )
        if path is None:
            return chrome_trace_events(*sources)
        write_chrome_trace(path, *sources)
        return None

    def shutdown(self, wait: bool = True, join_timeout: float = 5.0) -> None:
        """Stop the service: cancel queued jobs, drain or drop in-flight.

        A dispatcher thread that fails to stop within ``join_timeout``
        seconds (a worker pinned by a hung job can block it on the
        in-flight gate) is reported — logged with the number of pool calls
        still in flight and surfaced as ``dispatcher_stuck`` in
        :meth:`stats` / :meth:`health` — rather than waited on forever.
        """
        with self._cond:
            if self._core.closed:
                return
            drained = self._core.close()
            self._cond.notify_all()
            dispatcher = self._dispatcher
        # queued-but-never-run jobs (including any parked on a retry
        # backoff, which pop() would defer) must not hang their waiters
        for job in drained:
            self._settle(job, JobStatus.CANCELLED)
        if dispatcher is not None:
            dispatcher.join(timeout=join_timeout)
            if dispatcher.is_alive():
                with self._cond:
                    self._dispatcher_stuck = True
                    in_flight = self._core.in_flight
                logger.warning(
                    "dispatcher thread failed to stop within %.1fs; "
                    "%d pool call(s) still in flight",
                    join_timeout, in_flight,
                )
        with self._cond:
            executor = self._executor
            self._executor = None
        if executor is not None and self._owns_executor:
            executor.shutdown(wait=wait)
        release_attachments()
        # all workers are gone (or externally owned and done with our
        # jobs): unlink every shared-memory segment the registry created
        self._registry.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(mode={self.mode!r}, workers={self.max_workers}, "
            f"graphs={len(self._registry)})"
        )
