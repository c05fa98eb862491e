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
``thread``
    ``ThreadPoolExecutor`` — shares graphs by reference.  NumPy kernels
    release the GIL only partially, so this mostly provides overlap, not
    speedup; it is the fallback where fork/spawn is unavailable.
``inline``
    Synchronous execution inside ``submit`` — deterministic, used by tests
    and as the zero-overhead mode for single queries.

In the two pool modes the service decides per job where it runs.  A
warm, plain, sub-millisecond job (see ``QueryService._light``) runs in
the service process, against the live graph, with no round trip to a
worker: on the thread that submitted it when the service is idle (not
paused, nothing queued, nothing in flight), so it has settled when
``submit`` returns, and otherwise on the dispatcher thread.  Every other
job is queued, and the dispatcher sends it to the pool as one call.  Light
jobs take no pool worker, so they keep flowing while the pool is busy
with heavy ones.  A traced job's ``service.job`` span records the choice
as its ``where`` attribute (``service`` or ``pool``).

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
* **Retries**: crash-shaped failures (a dying worker / broken pool) are
  retried ``MAX_RETRIES`` times with doubling backoff from
  ``RETRY_BACKOFF_SECONDS``, on the same engine in a fresh worker;
  deterministic engine exceptions propagate immediately.  A job always
  runs on the engine its config names.
* **Failing engines**: an engine that has crashed or returned a wrong
  result ``ENGINE_FAILURE_LIMIT`` times since its last clean run marks
  the service degraded, and its jobs run in the pool, where a crash
  cannot take the service down, until one of them runs clean.
* **Caching**: results are cached by ``(graph fingerprint, canonical
  pattern, config)`` with LRU eviction; graph updates invalidate — or,
  through :meth:`QueryService.dynamic_session`, delta-patch — entries.

The clock and sleep functions are injectable so every timing-dependent
code path is testable without real sleeps.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.config import SystemConfig, xset_default
from ..core.incremental import IncrementalGPM
from ..errors import (
    InjectedCrashError,
    QueueFullError,
    ServiceError,
    WorkerCrashError,
)
from ..obs import MetricsRegistry, Observation, Tracer
from ..obs.export import chrome_trace_events, write_chrome_trace
from ..patterns.plan import build_plan
from ..sched.adaptive import CostPredictor, query_features
from ..resilience import HealthReport, HealthState, assess
from .cache import CacheKey, ResultCache, pattern_cache_key
from .job import Job, JobHandle, JobStatus
from .registry import GraphRegistry
from .scheduler import JobQueue
from .stats import LatencyRecorder, ServiceStats
from .worker import run_job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph
    from ..obs import Counter, ExecutionProfile
    from ..patterns.pattern import Pattern
    from ..resilience import FaultPlan
    from ..sim.report import SimReport

__all__ = ["QueryService", "InlineExecutor", "MODES"]

logger = logging.getLogger(__name__)

#: accepted values for ``QueryService(mode=...)``
MODES = ("process", "thread", "inline")

#: exception types treated as "the worker died" → retried with backoff
_CRASH_TYPES = (BrokenExecutor, WorkerCrashError)

#: crash-shaped failures one job is retried after, and the backoff before
#: its first retry; each further retry waits twice as long as the last
MAX_RETRIES = 2
RETRY_BACKOFF_SECONDS = 0.05

#: crash or wrong-result failures of one engine since its last clean run
#: at which it is failing: it marks the service degraded, and its jobs run
#: in the pool until one of them runs clean
ENGINE_FAILURE_LIMIT = 3

_CACHE_HELP = "result-cache outcome of cached submits"

#: every count the service keeps, kept once: row → (series, help).  The
#: series' own counter is the store — ``QueryService._count`` is the only
#: writer and ``stats()`` / ``health()`` read the same counters back, so an
#: integer and its series cannot drift apart
_COUNTS = {
    # terminal outcomes, named by the JobStatus value a job settles in
    "done": ("repro_jobs_completed_total", "jobs finished successfully"),
    "failed": (
        "repro_jobs_failed_total", "jobs that exhausted their retries"
    ),
    "cancelled": (
        "repro_jobs_cancelled_total", "jobs cancelled before they finished"
    ),
    "submitted": ("repro_jobs_submitted_total", "jobs accepted by submit()"),
    "retries": ("repro_job_retries_total", "crash-shaped failures retried"),
    "worker_calls": (
        "repro_worker_calls_total",
        "jobs sent to the pool, one executor call each",
    ),
    # the rows below carry labels, whose values the caller of _count gives
    "faults_injected": (
        "repro_faults_injected_total",
        "injected faults observed by the service",
    ),
    "crosschecks": (
        "repro_crosschecks_total", "sampled cross-engine verification runs"
    ),
    "cache_hits": ("repro_cache_hits_total", _CACHE_HELP),
    "cache_misses": ("repro_cache_misses_total", _CACHE_HELP),
}

#: A job profiled under this many seconds runs in the service process
#: instead of paying a pool round trip (≈0.65 ms of wake-ups around a
#: 0.3 ms run); it is also the longest such a job holds up the next
#: dispatch.  docs/ARCHITECTURE.md, *Where a job runs*, has the numbers.
LIGHT_SECONDS = 0.001

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
        self._queue = JobQueue(queue_limit)
        # metrics always exist (they are cheap, per-job bookkeeping);
        # span tracing + per-query profiling is opt-in via observability=
        self.metrics = MetricsRegistry()
        self._latency = LatencyRecorder(registry=self.metrics)
        #: online cost model trained from every completed job; drives
        #: cost-ranked dispatch and the light-job test
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
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        self._cond = threading.Condition()
        self._dispatcher: threading.Thread | None = None
        self._paused = start_paused
        self._shutdown = False
        self._in_flight = 0
        self._dispatcher_stuck = False
        #: (row of ``_COUNTS``, *label values) → that series' counter
        self._tally: "dict[tuple[str, ...], Counter]" = {}
        # -- resilience layer (failure records, cross-check, fault plan) -----
        #: share of jobs, picked by job id, re-run on a second engine and
        #: compared by count (``_sampled_verify``); 0.0 checks none
        self.verify_fraction = verify_fraction
        self._fault_plan: "FaultPlan | None" = None
        #: engine → crash or wrong-result failures since its last clean
        #: run, for the engines with any; written under ``_cond``
        self._engine_failures: dict[str, int] = {}

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

    def invalidate_graph(self, graph_id: str) -> int:
        """Explicitly drop cached results for ``graph_id``'s snapshot."""
        record = self._registry.get(graph_id)
        return len(self._cache.invalidate_fingerprint(record.fingerprint))

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
        root_range: tuple[int, int] | None = None,
    ) -> JobHandle:
        """Enqueue one query; returns immediately with a :class:`JobHandle`.

        The exception is a warm light job on an idle service, which runs
        here and has settled by the time its handle is returned (see
        ``_run_if_idle``).  Jobs dispatch cheapest predicted first (see
        :mod:`repro.service.scheduler`).  ``engine`` / ``config`` override
        the service defaults for this job only.
        ``root_range`` restricts matching to search trees rooted in the
        half-open vertex range ``[lo, hi)`` — the cluster layer's shard
        workers submit exactly such root-partitioned subqueries.
        Raises :class:`~repro.errors.QueueFullError` under backpressure.
        """
        if self._shutdown:
            raise ServiceError("service has been shut down")
        job = self._resolve(
            graph_id, pattern, induced, engine, config, root_range
        )
        if use_cache:
            cached = self._cache.get(job.cache_key)
            if cached is None:
                self._count("cache_misses")
            else:
                job.handle.from_cache = True
                if job.span is not None:
                    job.span.set_attr("cache_hit", True)
                self._count("submitted")
                self._settle(job, JobStatus.DONE, report=cached)
                return job.handle
        job.enqueued_at = self._clock()
        if self._run_if_idle(job):
            return job.handle
        if job.span is not None:
            job.queued_span = self._observation.tracer.start_span(
                "service.queued", parent=job.span
            )
        with self._cond:
            # accepted only once the push went through (QueueFullError
            # propagates under backpressure), and counted before anything
            # downstream of the queue can count the same job
            self._queue.push(job)
            self._count("submitted")
            self._cond.notify_all()
        if self.mode == "inline":
            self._drain_inline()
        else:
            self._ensure_dispatcher()
        return job.handle

    def _resolve(
        self,
        graph_id: str,
        pattern: "Pattern",
        induced: bool | None,
        engine: str | None,
        config: SystemConfig | None,
        root_range: tuple[int, int] | None,
    ) -> Job:
        """Everything a submission is before it is decided on: the pinned
        graph snapshot, the concrete engine and config, the plan, the cost
        prediction, the cache key, the handle and (when traced) the open
        ``service.job`` span — one not-yet-queued :class:`Job`."""
        record = self._registry.get(graph_id)
        cfg = config or self.config
        if engine is not None and engine != cfg.engine:
            cfg = cfg.with_overrides(engine=engine)
        if root_range is not None:
            lo, hi = int(root_range[0]), int(root_range[1])
            if lo < 0 or hi < lo:
                raise ServiceError(
                    f"root_range must be a half-open [lo, hi) with "
                    f"0 <= lo <= hi, got {root_range!r}"
                )
            root_range = (lo, hi)
        plan = build_plan(pattern, induced=induced)
        pkey = pattern_cache_key(pattern, induced)
        features = query_features(record.graph, record.fingerprint, pkey)
        estimate = self.predictor.predict(features, cfg.engine)
        handle = JobHandle(
            job_id=next(self._job_ids),
            graph_id=graph_id,
            pattern_name=pattern.name,
            engine=cfg.engine,
            cancel_cb=self._cancel,
        )
        ob = self._observation
        return Job(
            handle=handle,
            graph_id=graph_id,
            fingerprint=record.fingerprint,
            plan=plan,
            config=cfg,
            cache_key=CacheKey(
                fingerprint=record.fingerprint,
                pattern_key=pkey,
                config_key=cfg.cache_key(),
                root_key=root_range,
            ),
            root_range=root_range,
            seq=next(self._seq),
            record=record,  # snapshot pinned at submit time
            predicted_seconds=estimate.seconds,
            predicted_source=estimate.source,
            features=features,
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
        snapshot under ``graph_id`` and invalidates cached results of the
        old snapshot.  Entries for *this* pattern are immediately re-cached
        for the new fingerprint with the incrementally maintained exact
        count (their timing fields are carried over from the stale run and
        should be treated as approximate).
        """
        record = self._registry.get(graph_id)
        pkey = pattern_cache_key(pattern, induced)

        def on_update(gpm: IncrementalGPM, u, v, inserted, delta) -> None:
            old_fp, new_fp = self._registry.update(graph_id, gpm.snapshot())
            dropped = self._cache.invalidate_fingerprint(old_fp)
            for key, report in dropped:
                # root-restricted (cluster shard) entries hold partial
                # counts; the maintained total must not overwrite them
                if key.pattern_key == pkey and key.root_key is None:
                    patched = replace(report, embeddings=gpm.count)
                    self._cache.put(key.with_fingerprint(new_fp), patched)

        return IncrementalGPM(
            record.graph, pattern, induced=induced, on_update=on_update
        )

    # -- scheduling internals ----------------------------------------------

    def _count(self, name: str, n: int = 1, **labels: str) -> None:
        """Bump one row of ``_COUNTS`` (its series appears on first use)."""
        key = (name, *labels.values())
        counter = self._tally.get(key)
        if counter is None:
            counter = self._tally[key] = self.metrics.counter(
                *_COUNTS[name], **labels
            )
        counter.inc(n)

    def _total(self, name: str, *labels: str) -> int:
        """One row's count, summed over the label values left open."""
        row = (name, *labels)
        return sum(
            int(counter.value)
            for key, counter in list(self._tally.items())
            if key[:len(row)] == row
        )

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
            self._count("cache_hits" if handle.from_cache else status.value)
        if status is not JobStatus.DONE:
            logger.log(
                logging.ERROR if status is JobStatus.FAILED else logging.INFO,
                "job %d (%s on %s) %s%s",
                handle.job_id, handle.pattern_name, handle.graph_id,
                status.value, f": {error}" if error is not None else "",
            )
        return True

    def _requeue(self, job: Job, delay: float, **span_attrs) -> None:
        """Put a crashed job back on the queue, runnable after ``delay``.

        The one re-push: a queue that filled up in the meantime fails the
        job (typed, counted and recorded like any other failure).
        """
        if self._observation is not None and job.span is not None:
            job.queued_span = self._observation.tracer.start_span(
                "service.queued", parent=job.span, **span_attrs
            )
        if delay and self.mode == "inline":
            # synchronous mode: this callback runs on the submitting
            # thread, so sleeping delays no other completion
            self._sleep(delay)
            delay = 0.0
        # pool modes run this callback on the executor's completion
        # thread — sleeping there would serialise every in-flight
        # completion behind the backoff, so defer via the queue
        job.not_before = self._clock() + delay if delay else None
        self._rebuild_executor_if_broken()
        job.handle._requeue()
        job.enqueued_at = self._clock()
        try:
            self._queue.push(job)
        except QueueFullError as full:
            self._settle(job, JobStatus.FAILED, error=full)
            return
        # inline mode needs no kick: _on_done runs inside _drain_inline's
        # loop, which pops the requeued job next
        with self._cond:
            self._cond.notify_all()
        if self.mode != "inline":
            # a job that crashed on its submitting thread may be the first
            # this service ever queued
            self._ensure_dispatcher()

    def _cancel(self, handle: JobHandle) -> bool:
        # a job is cancellable exactly while it is queued: whoever takes it
        # out of the queue first (this, a pop or shutdown's drain) owns it
        job = self._queue.remove(handle)
        return job is not None and self._settle(job, JobStatus.CANCELLED)

    def pause(self) -> None:
        """Stop dispatching; queued jobs accumulate (tests, maintenance)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()
        if self.mode == "inline":
            self._drain_inline()

    def _make_executor(self):
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        if self.mode == "thread":
            return ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-service",
            )
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

    def _ensure_dispatcher(self) -> None:
        with self._cond:
            if self._dispatcher is not None or self._shutdown:
                return
            self._dispatcher = threading.Thread(
                target=self._dispatcher_loop,
                name="repro-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _dispatcher_loop(self) -> None:
        while True:
            with self._cond:
                while not self._shutdown and self._paused:
                    self._cond.wait(0.05)
                if self._shutdown:
                    return
            job = self._next_job()
            if job is None:
                with self._cond:
                    # pushers enqueue and finished pool calls free their
                    # slot, then notify, under this lock: look again
                    # holding it, or what changed since is slept on
                    job = self._next_job()
                    if job is None:
                        if not self._shutdown:
                            self._cond.wait(0.05)
                        elif self._in_flight == 0:
                            return
                        continue
            self._dispatch(job)
            # a pause would otherwise sleep naming the job, which keeps its
            # pinned graph record alive
            del job

    def _next_job(self) -> "Job | None":
        """The next job to dispatch.  While every pool worker is busy,
        only one the dispatcher runs itself: a job the veto refuses stays
        at the head of the queue, so dispatch keeps policy order.  Jobs run
        here have settled before this is asked again, so ``_in_flight``
        counts pool calls and at most one run on a submitting thread
        (``_run_if_idle``), which ends within about ``LIGHT_SECONDS``."""
        full = self._in_flight >= self.max_workers
        return self._queue.pop(self._clock(), self._light if full else None)

    def _light(self, job: Job) -> bool:
        """Does the dispatcher run ``job`` itself, in the service process?

        Only a warm, plain, sub-millisecond one: its prediction comes from
        the profile tier (this shape has run on this snapshot) and is under
        ``LIGHT_SECONDS``, so one wrong guess cannot stall dispatch for a
        heavy query; it has no cross-check; its engine is not failing (a
        crashing engine runs in the pool until a run of it is clean); and
        the armed plan assigns its coming attempt no fault (a HANG must
        not pin the dispatcher, and a CRASH must kill a pool process, not
        the service).  Asked before ``_begin``: by the queue's veto while
        the pool is full, by ``_dispatch``, and by ``submit`` on an idle
        service (``_run_if_idle``).
        """
        return (
            job.predicted_source == "profile"
            and job.predicted_seconds < LIGHT_SECONDS
            and self._engine_failures.get(job.config.engine, 0)
            < ENGINE_FAILURE_LIMIT
            and self._sampled_verify(job) is None
            and not self._faults(job)
        )

    def _faults(self, job: Job) -> "tuple | None":
        """The armed plan's faults for the job's coming attempt.

        Drawn once per attempt: a draw spends the plan's ``max_fires``
        budget, and ``_light`` may ask about a queued job many times before
        ``_begin`` runs the attempt.  With no plan armed the job keeps what
        it has.
        """
        plan = self._fault_plan
        if plan is not None and not job.faults_drawn:
            job.faults = (
                plan.for_job(job.handle.job_id, job.attempts + 1) or None
            )
            job.faults_drawn = True
        return job.faults

    def _drain_inline(self) -> None:
        while True:
            with self._cond:
                if self._paused or self._shutdown:
                    return
            job = self._queue.pop(self._clock())
            if job is None:
                return
            self._dispatch(job)

    def _run_if_idle(self, job: Job) -> bool:
        """Run a light ``job`` on the submitting thread if the service is
        idle: not paused, nothing queued, nothing in flight.  True when it
        ran; it has settled by then.

        Waking the dispatcher to run a job the submitter can run itself
        costs two thread hops per query.  Pool jobs stay queued, so cost
        order still decides a burst's first pool call.  The first look
        takes no lock (``JobQueue.depth()`` is one read of the queue's
        length): on a busy service it costs a few attribute reads.  The
        look is confirmed under ``_cond``, which ``_begin`` takes again to
        count the job in flight, so a concurrent submitter sees the
        service busy.
        """
        if self.mode == "inline" or not self._idle() or not self._light(job):
            return False
        with self._cond:
            if self._shutdown or not self._idle():
                return False
            self._count("submitted")
            job.where = "service"
            self._begin(job)
        self._launch(job)
        return True

    def _idle(self) -> bool:
        return not (self._paused or self._in_flight or self._queue.depth())

    def _dispatch(self, job: Job) -> None:
        light = self.mode != "inline" and self._light(job)
        job.where = "service" if light else "pool"
        self._begin(job)
        self._launch(job)

    def _begin(self, job: Job) -> None:
        """Everything that happens to a job between the queue and its run.
        A job out of the queue is pending: a cancel or a shutdown could
        only have finished it by taking it out first."""
        # this attempt's faults (drawn here unless _light already has);
        # the next attempt draws anew
        self._faults(job)
        job.faults_drawn = False
        job.attempts += 1
        job.handle.attempts = job.attempts
        job.handle._set_running()
        job.dispatched_at = time.perf_counter()
        if job.enqueued_at:
            self._latency.record_queue_wait(
                max(self._clock() - job.enqueued_at, 0.0)
            )
        if job.queued_span is not None and self._observation is not None:
            self._observation.tracer.end_span(job.queued_span)
            job.queued_span = None
        if job.verify_engine is None:
            job.verify_engine = self._sampled_verify(job)
            if job.verify_engine is not None and job.span is not None:
                job.span.set_attr("verify_engine", job.verify_engine)
        with self._cond:
            self._in_flight += 1

    def _launch(self, job: Job) -> None:
        """Run ``job`` where ``_dispatch`` or ``_run_if_idle`` put it: on
        this thread (it has settled when this returns), or as one pool
        call.  Either way it is one :func:`run_job` through an executor,
        whose future settles it."""
        here = job.where == "service"
        if not here:
            self._count("worker_calls")
        if job.span is not None:
            job.span.set_attr("where", job.where)
        try:
            future = (
                InlineExecutor() if here else self._get_executor()
            ).submit(
                run_job,
                job.graph_id,
                job.fingerprint,
                # the live graph, except across a process boundary: there
                # a SharedGraphRef the worker attaches to (pickle bytes
                # when shared memory is off)
                job.record.graph if here else job.record.ship(self.mode),
                job.plan,
                job.config,
                observe_run=self._observation is not None,
                faults=job.faults,
                verify_engine=job.verify_engine,
                root_range=job.root_range,
            )
        except BaseException as exc:  # pool already broken at submit time
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(lambda f: self._on_done(job, f))

    def _sampled_verify(self, job: Job) -> str | None:
        """The engine this job is cross-checked on, if it is sampled.

        The decision is a pure function of the job id, so a replayed
        workload cross-checks exactly the same jobs regardless of
        scheduling.  The check runs on the event engine, the most
        independent implementation; event jobs are checked on batched.
        """
        if self.verify_fraction <= 0.0:
            return None
        rng = random.Random(hash((0, job.handle.job_id)))
        if rng.random() >= self.verify_fraction:
            return None
        return "event" if job.config.engine != "event" else "batched"

    def _on_done(self, job: Job, future: Future) -> None:
        """The one place a dispatched job is settled (or retried)."""
        with self._cond:
            self._in_flight -= 1
            # a freed slot matters to the dispatcher only when a job waits
            # for it: otherwise, as after every run on a submitting thread,
            # the wake-up would only contend for the GIL
            if self._queue.depth():
                self._cond.notify_all()
        if future.cancelled():
            # the executor dropped the job (e.g. cancel_futures on
            # shutdown); release waiters instead of hanging them forever
            self._settle(job, JobStatus.CANCELLED)
            return
        exc = future.exception()
        if exc is None:
            self._on_report(job, future.result())
            return
        if isinstance(exc, _CRASH_TYPES):
            self._record_run(job.config.engine, failed=True)
            if isinstance(exc, InjectedCrashError):
                # the worker died before it could ship notes home; count
                # the injected crash from the typed error's site instead
                self._note_injected({f"{exc.site}:crash": 1})
            if job.attempts <= MAX_RETRIES:
                logger.warning(
                    "job %d (%s on %s) crashed on attempt %d, retrying: %s",
                    job.handle.job_id, job.handle.pattern_name,
                    job.graph_id, job.attempts, exc,
                )
                self._count("retries")
                self._requeue(
                    job,
                    RETRY_BACKOFF_SECONDS * 2 ** (job.attempts - 1),
                    retry=job.attempts,
                )
                return
            exc = WorkerCrashError(
                f"job {job.handle.job_id} crashed {job.attempts} time(s); "
                f"retries exhausted ({MAX_RETRIES}): {exc}"
            )
        self._settle(job, JobStatus.FAILED, error=exc)

    def _on_report(self, job: Job, report: "SimReport") -> None:
        """A worker returned: feed the engine's failure record, the cache,
        the trace and the cost model, then settle the job DONE."""
        notes = getattr(report, "notes", None) or {}
        self._note_injected(notes.get("injected"))
        crosscheck = notes.get("crosscheck")
        mismatch = bool(crosscheck and crosscheck.get("mismatch"))
        self._record_run(job.config.engine, failed=mismatch)
        if mismatch:
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
            self._count(
                "crosschecks", result="mismatch" if mismatch else "match"
            )
        clean = not mismatch and not notes.get("injected")
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
            # process (dispatcher, submitter, pool thread or inline) share
            # its clock
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
        if clean and job.features is not None and job.verify_engine is None:
            # clean single-engine run: valid training data for the
            # cost model (cross-checked jobs time two engines;
            # fault-perturbed timings are noise).  The model means run
            # time: the worker's own measurement where the report
            # carries one, since dispatch-to-settle also holds the pool
            # round trip
            ran = getattr(report, "wall_seconds", 0.0) or elapsed
            self.predictor.observe(job.features, job.config.engine, ran)
            if job.predicted_seconds > 0.0:
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
            self._fault_plan = plan

    def _note_injected(self, events: "dict[str, int] | None") -> None:
        """Fold a worker's ``site:kind`` fault events into the metrics."""
        for key, count in (events or {}).items():
            site, _, kind = key.partition(":")
            self._count("faults_injected", count, site=site, kind=kind)

    def _record_run(self, engine: str, *, failed: bool) -> None:
        """One run's outcome into its engine's failure record: a crash or
        a wrong result adds one, any other report clears it."""
        with self._cond:
            if failed:
                self._engine_failures[engine] = (
                    self._engine_failures.get(engine, 0) + 1
                )
            else:
                self._engine_failures.pop(engine, None)

    def _health_state(self, depth: int) -> HealthState:
        """Classify the service from one read of its queue depth and its
        engines' failure records; the caller holds ``_cond``."""
        return assess(
            depth,
            self._queue.limit,
            any(
                failures >= ENGINE_FAILURE_LIMIT
                for failures in self._engine_failures.values()
            ),
        )

    def health(self) -> HealthReport:
        """Point-in-time degradation report (state + counters)."""
        with self._cond:
            # one read of the depth: the dispatcher pops outside _cond,
            # so a second read could disagree with the state
            depth = self._queue.depth()
            return HealthReport(
                state=self._health_state(depth),
                queue_depth=depth,
                queue_limit=self._queue.limit,
                in_flight=self._in_flight,
                engine_failures=dict(self._engine_failures),
                crosscheck_mismatches=self._total("crosschecks", "mismatch"),
                faults_injected=self._total("faults_injected"),
                dispatcher_stuck=self._dispatcher_stuck,
            )

    # -- introspection / lifecycle -----------------------------------------

    def stats(self) -> ServiceStats:
        """Point-in-time snapshot of queue, pool, cache and latencies."""
        # one consistent read: _settle finishes and counts a job under
        # _cond, and the depth is read once (see health())
        with self._cond:
            depth = self._queue.depth()
            health = self._health_state(depth)
            self.metrics.gauge(
                "repro_queue_depth", "jobs currently queued"
            ).set(depth)
            self.metrics.gauge(
                "repro_in_flight", "jobs currently on workers"
            ).set(self._in_flight)
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
                in_flight=self._in_flight,
                submitted=self._total("submitted"),
                # a cache hit completes a job without a worker doing so
                completed=self._total("done") + self._total("cache_hits"),
                failed=self._total("failed"),
                cancelled=self._total("cancelled"),
                retries=self._total("retries"),
                crosscheck_mismatches=self._total("crosschecks", "mismatch"),
                faults_injected=self._total("faults_injected"),
                health=health.name.lower(),
                dispatcher_stuck=self._dispatcher_stuck,
                worker_calls=self._total("worker_calls"),
                queue_wait=self._latency.queue_wait_summary(),
                predictor=self.predictor.snapshot(),
                cache_size=len(self._cache),
                cache_hits=self._cache.hits,
                cache_misses=self._cache.misses,
                cache_evictions=self._cache.evictions,
                cache_invalidations=self._cache.invalidations,
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

    def _trace_sources(self) -> "tuple[list, list[tuple]]":
        """Finished spans and PE activity events, the trace's two inputs."""
        ob = self._observation
        if ob is None:
            raise ServiceError(
                "tracing is disabled; construct the service with "
                "observability=True"
            )
        pe_events: list[tuple] = []
        for profile in self._profiles:
            pe_events.extend(profile.pe_events)
        return ob.tracer.finished(), pe_events

    def export_trace(self, path: str | None = None) -> "list[dict] | None":
        """Write (or return) the unified Chrome/Perfetto trace.

        With ``path`` the trace JSON is written there and None is returned;
        without it the raw event list comes back.  Raises
        :class:`~repro.errors.ServiceError` when tracing is disabled.
        """
        if path is None:
            return chrome_trace_events(*self._trace_sources())
        write_chrome_trace(path, *self._trace_sources())
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
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
            dispatcher = self._dispatcher
        # queued-but-never-run jobs (including any parked on a retry
        # backoff, which pop() would defer) must not hang their waiters
        for job in self._queue.drain():
            self._settle(job, JobStatus.CANCELLED)
        if dispatcher is not None:
            dispatcher.join(timeout=join_timeout)
            if dispatcher.is_alive():
                with self._cond:
                    self._dispatcher_stuck = True
                    in_flight = self._in_flight
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
