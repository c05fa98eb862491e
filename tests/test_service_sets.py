"""Where a job runs: a warm, plain, sub-millisecond job runs in the
service process, on the thread that submitted it when the service is
idle and otherwise on the dispatcher thread; the pool gets everything
else, one job per call.

The rules are the dispatch core's (``DispatchState``), driven here with a
hand-advanced clock and no executor: the veto it pops with while every
pool worker is busy, and the idle rule.  The service side runs its
dispatcher thread against the real two-worker pool or an in-process
executor stub, reads where each attempt ran off the core's own answers,
and is waited on through job handles — no sleeps anywhere.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
import weakref
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import repro
from repro.errors import WorkerCrashError, XSetError
from repro.graph import erdos_renyi
from repro.patterns.executor import count_embeddings
from repro.patterns.pattern import PATTERNS
from repro.patterns.plan import build_plan
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.sched.adaptive import CostPredictor, query_features
from repro.service import (
    InlineExecutor,
    Job,
    JobHandle,
    JobStatus,
    QueryService,
)
from repro.service import core as core_module
from repro.service import service as service_module
from repro.service import worker
from repro.service.cache import pattern_cache_key
from repro.service.core import DispatchState, Outcome
from repro.sim.report import SimReport

LIGHT = ("3CF", "WEDGE", "DIA", "TT")


@pytest.fixture(autouse=True)
def no_attachment_left_in_this_process():
    """The executor stubs run worker code here: drop what it attached,
    and its counts, which a pool forked by a later test would inherit."""
    attaches = worker._SHM_ATTACHES
    yield
    for _, _, attached in worker._GRAPH_CACHE.values():
        if attached is not None:
            attached.close()
    worker._GRAPH_CACHE.clear()
    worker._SHM_ATTACHES = attaches


class FakeClock:
    """Hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def profiled(job_id, ms=0.3, **fields) -> Job:
    """A job whose shape's fastest clean run took ``ms`` milliseconds
    (``math.inf``: it has not run): light under ``LIGHT_SECONDS``."""
    return Job(
        handle=JobHandle(job_id, "g", "3CF", "codegen", lambda h: False),
        graph_id="g", fingerprint="fp", plan=None,
        config=SimpleNamespace(engine="codegen"), cache_key=None,
        seq=job_id, predicted_seconds=ms * 1e-3, **fields,
    )


def busy(core, now=0) -> Job:
    """Begin one heavy pool call: a one-worker pool is then full."""
    call = profiled(0, ms=500)
    assert core.admit(call, now) is False
    assert core.next(now) is call and call.where == "pool"
    return call


def past_a_full_pool(core, now) -> list[Job]:
    """What the dispatcher starts while no pool worker frees up: each job
    runs here and has ended before the core is asked again."""
    jobs = []
    while isinstance(job := core.next(now), Job):
        assert job.where == "service"
        core.done(job, Outcome.OK, now)
        jobs.append(job)
    return jobs


def in_queue(core) -> list[Job]:
    """The queue's jobs, in its cost order."""
    return [job for _, _, job in core.queue._entries]


def oracle(graph, name) -> int:
    return count_embeddings(graph, build_plan(PATTERNS[name])).embeddings


def ids(jobs) -> list[int]:
    return [job.handle.job_id for job in jobs]


def warm(svc, graph, names, seconds=2e-4) -> None:
    """Teach the cost record that each shape has run on ``graph`` in
    ``seconds`` on the codegen engine: under ``LIGHT_SECONDS`` the shape
    is now light."""
    for name in names:
        features = query_features(
            graph, graph.fingerprint(), pattern_cache_key(PATTERNS[name], None)
        )
        svc.predictor.observe(features, "codegen", seconds)


@pytest.fixture(autouse=True)
def begun_log(monkeypatch):
    """Log every attempt a core begins, off its own answers (``admit``
    saying "run here", each job ``next`` hands out), with the thread that
    asked: the one that then runs or sends the job."""
    def logged(event):
        def answer(core, *args):
            act = event(core, *args)
            job = args[0] if act is True else act
            if isinstance(job, Job):
                core.__dict__.setdefault("_begun", []).append({
                    "job_id": job.handle.job_id, "attempt": job.attempts,
                    "where": job.where, "thread": threading.current_thread(),
                })
            return act
        return answer

    for event in ("admit", "next"):
        monkeypatch.setattr(
            DispatchState, event, logged(getattr(DispatchState, event))
        )


def dispatched(svc) -> list[dict]:
    """``(job_id, attempt, where, thread)`` of every attempt, in order."""
    return list(svc._core.__dict__.get("_begun", ()))


# ---------------------------------------------------------------------------
# (a) the core: the veto leaves a refused head in place
# ---------------------------------------------------------------------------


class TestPopSet:
    def test_sets_follow_policy_order_and_the_refused_job_keeps_its_place(
        self,
    ):
        core = DispatchState(16)
        blocker = busy(core)
        # two heavy jobs tie on cost: FIFO by seq decides, also after a
        # refusal
        costs = {1: 0.3, 2: 0.1, 3: 0.2, 4: 5.0, 5: 5.0, 6: 7.0, 7: 0.5}
        jobs = {i: profiled(i, ms) for i, ms in costs.items()}
        for job in jobs.values():
            assert core.admit(job, 0) is False
        assert ids(past_a_full_pool(core, 0)) == [2, 3, 1, 7]
        # job 4 was looked at and refused: it is still queued, the next
        # one out, ahead of its later twin, under its own seq
        assert core.queue.depth() == 3
        assert in_queue(core) == [jobs[4], jobs[5], jobs[6]]
        assert jobs[4].seq == 4 and jobs[4].attempts == 0
        assert past_a_full_pool(core, 0) == []
        # the pool worker frees up at each call's end: the head goes
        # unasked, to the pool
        core.done(blocker, Outcome.OK, 0)
        for i in (4, 5, 6):
            assert core.next(0) is jobs[i] and jobs[i].where == "pool"
            core.done(jobs[i], Outcome.OK, 0)
        assert core.next(0) is None

    def test_a_heavy_job_ends_the_set_before_it(self):
        core = DispatchState(8)
        blocker = busy(core)
        for i, ms in enumerate([0.2, 0.2, 0.1, 0.2], start=1):
            # the cheapest job carries an armed fault: the rule sends it
            # to the pool like a heavy one
            core.admit(profiled(i, ms, faults=("hang",) if i == 3 else None),
                        0)
        # the refused head is not jumped: the cheap jobs behind it wait
        # for a pool worker too
        assert past_a_full_pool(core, 0) == []
        core.done(blocker, Outcome.OK, 0)
        faulted = core.next(0)
        assert ids([faulted]) == [3] and faulted.where == "pool"
        assert ids(past_a_full_pool(core, 0)) == [1, 2, 4]

    def test_a_cancelled_job_and_backoff_inside_the_run(self):
        core = DispatchState(8)
        busy(core)
        first, cancelled, last = profiled(1, 0.1), profiled(2, 0.2), \
            profiled(5, 0.5)
        parked = profiled(4, 0.4, not_before=20.0)
        for job in (first, cancelled, parked, last):
            core.admit(job, 0)
        assert core.cancel(cancelled.handle) is cancelled
        assert ids(past_a_full_pool(core, 10)) == [1, 5]
        # the job on backoff was stepped over, not dropped and not run
        assert core.queue.depth() == 1
        assert core.next(10) == 20.0  # the wake-up it waits for
        assert ids(past_a_full_pool(core, 20)) == [4]

    def test_a_starving_head_joins_the_set_ahead_of_cheaper_jobs(self):
        core = DispatchState(8)
        busy(core)
        for job, at in ((profiled(1, 0.8), 0), (profiled(2, 0.9), 1),
                        (profiled(3, 0.1), 9), (profiled(4, 0.2), 9)):
            core.admit(job, at)
        # both old jobs are past the aging bound at t=10: arrival order
        # first, then cost order
        assert ids(past_a_full_pool(core, 10)) == [1, 2, 3, 4]

    def test_a_starving_head_that_is_refused_stays_the_head(self):
        core = DispatchState(8)
        blocker = busy(core)
        heavy = profiled(2, 5.0)
        for job, at in ((profiled(1, 0.8), 0), (heavy, 1),
                        (profiled(3, 0.1), 9)):
            core.admit(job, at)
        assert ids(past_a_full_pool(core, 10)) == [1]
        # the refused head is still queued, under its own seq
        assert heavy in in_queue(core) and core.queue.depth() == 2
        assert heavy.seq == 2
        # the cheap newcomer does not jump the starving head
        assert past_a_full_pool(core, 10) == []
        core.done(blocker, Outcome.OK, 10)
        assert core.next(10) is heavy and heavy.where == "pool"
        assert ids(past_a_full_pool(core, 10)) == [3]


# ---------------------------------------------------------------------------
# (b) the service: a seeded mix through the real pool
# ---------------------------------------------------------------------------


class TestSeededMix:
    def test_every_job_is_dispatched_once_in_policy_order(
        self, small_er, medium_er
    ):
        graphs = {"small": small_er, "medium": medium_er}
        rng = random.Random(24)
        svc = QueryService(
            mode="process", max_workers=2, start_paused=True,
            clock=FakeClock(), queue_limit=128,
            # one job in four is cross-checked, by job id
            verify_fraction=0.25,
        )
        try:
            for gid, graph in graphs.items():
                svc.register_graph(graph, gid)
            # the small graph's shapes are warm, the medium graph's cold
            warm(svc, small_er, LIGHT)
            submitted = []
            for _ in range(48):
                gid = rng.choice(sorted(graphs))
                name = rng.choice(LIGHT)
                kind = rng.choice(["light"] * 4 + ["heavy"])
                handle = svc.submit(
                    gid, PATTERNS[name], use_cache=False,
                    # the event engine's shapes have not run: priced inf
                    engine="event" if kind == "heavy" else "codegen",
                )
                submitted.append((handle, gid, name, kind))
            # what one-by-one dispatch would do: the queue, in its order
            expected = ids(in_queue(svc._core))
            svc.resume()
            for handle, gid, name, _ in submitted:
                report = handle.result(timeout=120)
                assert handle.status is JobStatus.DONE
                assert report.embeddings == oracle(graphs[gid], name)
            stats = svc.stats()
            assert stats.submitted == stats.completed == len(submitted)
            assert stats.retries == stats.failed == 0
            events = dispatched(svc)
            assert [event["job_id"] for event in events] == expected
            where = {event["job_id"]: event["where"] for event in events}
            checked = {
                handle.job_id for handle, *_ in submitted
                if "crosscheck" in handle.result().notes
            }
            assert checked
            # here: warm and not cross-checked; everything else (cold,
            # heavy, cross-checked) in the pool
            assert where == {
                handle.job_id: (
                    "service"
                    if gid == "small" and kind == "light"
                    and handle.job_id not in checked
                    else "pool"
                )
                for handle, gid, _, kind in submitted
            }
            pooled = sum(1 for w in where.values() if w == "pool")
            assert 0 < pooled < len(submitted)
            assert stats.worker_calls == pooled
            assert f"repro_worker_calls_total {pooled}" in svc.metrics_text()
        finally:
            svc.shutdown()


class TestChaosSplit:
    def test_faulted_jobs_run_in_the_pool_and_the_rest_here(
        self, small_er, monkeypatch
    ):
        monkeypatch.setattr(core_module, "MAX_RETRIES", 8)
        monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", 0.0)
        # crashes must not make the engine failing: that would send every
        # job to the pool, and the fault draw is what is under test
        monkeypatch.setattr(core_module, "ENGINE_FAILURE_LIMIT", 10**6)
        specs = (
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=0.3),
            FaultSpec(site="worker.run", kind=FaultKind.HANG, rate=0.3,
                      seconds=0.01),
        )
        svc = QueryService(mode="process", max_workers=2, start_paused=True)
        try:
            gid = svc.register_graph(small_er, "g")
            warm(svc, small_er, LIGHT)
            svc.arm_faults(FaultPlan(seed=27, specs=specs))
            names = [LIGHT[i % len(LIGHT)] for i in range(24)]
            handles = [
                svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="codegen"
                )
                for name in names
            ]
            svc.resume()
            for handle, name in zip(handles, names):
                # a hung waiter fails here with JobTimeoutError
                report = handle.result(timeout=60)
                assert report.embeddings == oracle(small_er, name)
            # the plan is a pure function of (job id, attempt): redraw it
            redraw = FaultPlan(seed=27, specs=specs)
            fired = {"crash": 0, "hang": 0}
            for event in dispatched(svc):
                kinds = [
                    spec.kind.value for spec in
                    redraw.for_job(event["job_id"], event["attempt"])
                ]
                assert event["where"] == ("pool" if kinds else "service")
                if kinds:
                    # a crash fires first and ends the attempt
                    fired[kinds[0]] += 1
            assert fired["crash"] and fired["hang"]
            stats = svc.stats()
            assert stats.retries == fired["crash"]
            assert stats.completed == len(names) and stats.failed == 0
            for kind, n in fired.items():
                assert stats.metrics[
                    f'repro_faults_injected_total{{kind="{kind}",'
                    f'site="worker.run"}}'
                ] == n
            assert stats.worker_calls == sum(fired.values())
            assert stats.worker_calls < len(dispatched(svc))
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# (c) a call that dies, a job that fails
# ---------------------------------------------------------------------------


class BreaksFirstCalls(InlineExecutor):
    """Runs calls in-process; the first call of each pattern dies like a
    broken pool instead."""

    def __init__(self) -> None:
        self.fns: list[str] = []
        self.died: set[str] = set()

    def submit(self, fn, /, *args, **kwargs):
        self.fns.append(fn.__name__)
        name = args[3].pattern.name
        if name not in self.died:
            self.died.add(name)
            raise BrokenExecutor(f"worker died under {name} (injected)")
        return super().submit(fn, *args, **kwargs)


def paused_service(graph, executor):
    svc = QueryService(
        mode="process", max_workers=1, start_paused=True, executor=executor,
    )
    return svc, svc.register_graph(graph, "g")


class TestSetFailures:
    def test_a_crashed_call_retries_each_of_its_jobs(
        self, small_er, monkeypatch
    ):
        # a pool call carries one job: the job of every call that dies is
        # retried, and only it
        monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", 0.0)
        executor = BreaksFirstCalls()
        svc, gid = paused_service(small_er, executor)
        try:
            handles = [
                svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="codegen"
                )
                for name in LIGHT
            ]
            svc.resume()
            for handle, name in zip(handles, LIGHT):
                report = handle.result(timeout=60)
                assert report.embeddings == oracle(small_er, name)
                assert handle.attempts == 2
            stats = svc.stats()
            assert stats.retries == len(LIGHT)
            assert stats.completed == len(LIGHT) and stats.failed == 0
            assert stats.in_flight == 0
            # cold shapes all went to the pool, which is handed run_job
            assert executor.fns == ["run_job"] * (2 * len(LIGHT))
            assert stats.worker_calls == 2 * len(LIGHT)
        finally:
            svc.shutdown()

    def test_an_engine_error_fails_its_own_job_only(
        self, small_er, monkeypatch
    ):
        real = service_module.run_job

        def run_job(graph_id, fingerprint, payload, plan, config, **kwargs):
            if plan.pattern.name == "DIA":
                raise XSetError("engine bug in DIA (injected)")
            return real(
                graph_id, fingerprint, payload, plan, config, **kwargs
            )

        monkeypatch.setattr(service_module, "run_job", run_job)
        svc, gid = paused_service(small_er, InlineExecutor())
        try:
            names = ["3CF", "DIA", "WEDGE"]
            warm(svc, small_er, names)
            handles = [
                svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="codegen"
                )
                for name in names
            ]
            svc.resume()
            for handle in handles:
                handle.exception()  # wait, whatever the outcome
            assert [e["where"] for e in dispatched(svc)] == ["service"] * 3
            assert [h.status for h in handles] == [
                JobStatus.DONE, JobStatus.FAILED, JobStatus.DONE
            ]
            with pytest.raises(XSetError, match="injected"):
                handles[1].result()
            for handle, name in ((handles[0], "3CF"), (handles[2], "WEDGE")):
                assert handle.result().embeddings == oracle(small_er, name)
            stats = svc.stats()
            assert (stats.completed, stats.failed, stats.retries) == (2, 1, 0)
            assert stats.in_flight == 0 and stats.worker_calls == 0
        finally:
            svc.shutdown()


class HeldPool(ThreadPoolExecutor):
    """A thread pool that knows how many of its calls are unfinished, and
    holds each call until ``release`` is set."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers=max_workers)
        self.lock = threading.Lock()
        self.open = self.peak = 0
        self.release = threading.Event()
        #: set by the first call
        self.called = threading.Event()

    def submit(self, fn, /, *args, **kwargs):
        with self.lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
        self.called.set()
        future = super().submit(self._held, fn, *args, **kwargs)
        # added before the service's own callback, so it also runs first:
        # a call is closed here before the service can send the next
        future.add_done_callback(self._closed)
        return future

    def _held(self, fn, *args, **kwargs):
        assert self.release.wait(timeout=120)
        return fn(*args, **kwargs)

    def _closed(self, _future) -> None:
        with self.lock:
            self.open -= 1


class TestSetAccounting:
    def test_calls_in_flight_never_exceed_the_workers_under_stress(
        self, small_er, monkeypatch
    ):
        # submitters, dispatcher and completion threads outnumber the
        # cores and switch every 10 µs: a lost update of the in-flight
        # count would over-dispatch, or leave the gate shut
        pool = HeldPool(max_workers=8)
        svc = QueryService(
            mode="process", max_workers=3, executor=pool, queue_limit=512
        )
        gid = svc.register_graph(small_er, "g")
        warm(svc, small_er, LIGHT[:3])
        # TT is profiled heavy: it goes to the pool, and queues behind
        # every light job
        warm(svc, small_er, ["TT"], seconds=0.5)
        # and the cost model stays where warm() put it: a run slowed by
        # the switching must not turn a light shape heavy mid-test
        monkeypatch.setattr(svc.predictor, "observe", lambda *args: None)
        handles: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = [
                ("TT", svc.submit(
                    gid, PATTERNS["TT"], use_cache=False, engine="codegen",
                ))
                for _ in range(6)
            ]

            def client(offset, mix):
                for i in range(30):
                    heavy = mix and i % 3 == 0
                    name = "TT" if heavy else LIGHT[(offset + i) % 3]
                    handles.append((name, svc.submit(
                        gid, PATTERNS[name], use_cache=False,
                        engine="codegen",
                    )))

            def clients(mix):
                threads = [
                    threading.Thread(target=client, args=(k, mix))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()

            # the pool holds three calls it does not finish: every light
            # job dispatches past it, and finishes
            clients(mix=False)
            for name, handle in handles:
                assert handle.result(timeout=120).embeddings == oracle(
                    small_er, name
                )
            assert pool.open == 3
            pool.release.set()
            clients(mix=True)
            for name, handle in pooled + handles:
                assert handle.result(timeout=120).embeddings == oracle(
                    small_er, name
                )
        finally:
            sys.setswitchinterval(interval)
            pool.release.set()
            svc.shutdown()
            pool.shutdown()
        stats = svc.stats()
        assert stats.submitted == stats.completed == 6 + 240
        assert stats.in_flight == 0
        assert pool.peak == 3
        assert stats.worker_calls == 6 + 40


# ---------------------------------------------------------------------------
# (d) the cost model means run time
# ---------------------------------------------------------------------------


class Canned(InlineExecutor):
    """Answers every call with a report claiming ``wall_seconds``."""

    def __init__(self, wall_seconds: float) -> None:
        self.wall_seconds = wall_seconds

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(
            lambda: SimReport(embeddings=7, wall_seconds=self.wall_seconds)
        )


class TestRunTimeModel:
    def test_a_cold_first_sample_is_forgotten(self, small_er):
        features = query_features(
            small_er, "fp", pattern_cache_key(PATTERNS["3CF"], None)
        )
        predictor = CostPredictor()
        # fork + attach + compile, then two warm runs of the same shape
        for seconds in (0.118, 0.0003, 0.00031):
            predictor.observe(features, "codegen", seconds)
        assert predictor.predict(features, "codegen") == 0.0003
        # a slow sample does not move the fastest run
        predictor.observe(features, "codegen", 0.0006)
        assert predictor.predict(features, "codegen") == 0.0003

    def test_a_snapshot_written_back_keeps_its_price(self, small_er):
        # writes that alternate between two snapshots (svc-light's, and
        # cluster-4shard's unregister + register) come back to a
        # fingerprint the record has priced: a record that forgot a
        # retired snapshot's shapes would price the toggle-back at inf
        # and send the light job to the pool
        u = 0
        v = int(small_er.neighbors(u)[0])
        other = small_er.without_edge(u, v)
        with QueryService(
            mode="process", max_workers=1, executor=Canned(3e-4),
        ) as svc:
            gid = svc.register_graph(small_er, "g")
            svc.count(gid, PATTERNS["3CF"], use_cache=False)
            svc.update_graph(gid, other)
            svc.count(gid, PATTERNS["3CF"], use_cache=False)
            svc.update_graph(gid, small_er)
            shape = query_features(
                small_er, small_er.fingerprint(),
                pattern_cache_key(PATTERNS["3CF"], None),
            )
            assert math.isfinite(
                svc.predictor.predict(shape, svc.config.engine)
            )
            svc.count(gid, PATTERNS["3CF"], use_cache=False)
            assert [event["where"] for event in dispatched(svc)] == \
                ["pool", "pool", "service"]

    @pytest.mark.parametrize("wall_seconds", [0.25, 0.0])
    def test_the_service_trains_on_the_workers_own_time(
        self, small_er, wall_seconds
    ):
        with QueryService(
            mode="inline", executor=Canned(wall_seconds)
        ) as svc:
            gid = svc.register_graph(small_er, "g")
            svc.count(gid, PATTERNS["3CF"], use_cache=False)
            (learned,) = svc.predictor._fastest.values()
        if wall_seconds:
            assert learned == wall_seconds
        else:
            # a report without one: dispatch-to-settle, as before
            assert 0.0 < learned < 0.1


# ---------------------------------------------------------------------------
# trace alignment and lifetime of a finished burst
# ---------------------------------------------------------------------------


def paused_burst(svc, gid, n=12):
    handles = [
        svc.submit(
            gid, PATTERNS[LIGHT[i % len(LIGHT)]], use_cache=False,
            engine="codegen",
        )
        for i in range(n)
    ]
    svc.resume()
    for handle in handles:
        handle.result(timeout=120)
    return handles


class TestSetAftermath:
    def test_a_run_here_lies_inside_its_job_span(self, small_er):
        # spans recorded on the dispatcher share the service's clock: they
        # are adopted where they are, not re-anchored at the dispatch
        # timestamp as a pool process's are.  Submitted while paused, the
        # job queues, and the dispatcher runs it
        with QueryService(
            mode="process", max_workers=2, observability=True,
            start_paused=True,
        ) as svc:
            gid = svc.register_graph(small_er, "g")
            warm(svc, small_er, ["3CF"])
            handle = svc.submit(
                gid, PATTERNS["3CF"], use_cache=False, engine="codegen"
            )
            svc.resume()
            handle.result(timeout=60)
            (event,) = dispatched(svc)
            assert event["where"] == "service"
            assert event["thread"] is svc._dispatcher
            spans = svc._observation.tracer.finished()
        (job,) = [sp for sp in spans if sp.name == "service.job"]
        assert job.attrs["where"] == "service"  # the record of where it ran
        (queued,) = [sp for sp in spans if sp.name == "service.queued"]
        (run,) = [sp for sp in spans if sp.name == "worker.run_job"]
        assert run.parent_id == queued.parent_id == job.span_id
        # the run began after dispatch ended the queued span, and ended
        # before the job settled
        assert queued.end <= run.start <= run.end <= job.end

    def test_a_drained_burst_pins_no_graph_record(self, small_er):
        svc = QueryService(mode="process", max_workers=2, start_paused=True)
        try:
            gid = svc.register_graph(small_er, "g")
            # half the shapes run here, half in the pool
            warm(svc, small_er, LIGHT[:2])
            asleep = threading.Event()
            real_wait = svc._cond.wait

            def wait(timeout=None):
                # the dispatcher waits with nothing queued only once it
                # has started the whole burst
                if (threading.current_thread() is svc._dispatcher
                        and not svc._core.queue.depth()):
                    asleep.set()
                return real_wait(timeout)

            svc._cond.wait = wait
            paused_burst(svc, gid)
            assert {e["where"] for e in dispatched(svc)} == {
                "service", "pool"
            }
            # the dispatcher has found the queue empty and gone to sleep
            # with whatever its loop still holds
            assert asleep.wait(timeout=60)
            old = weakref.ref(svc._registry.get(gid))
            svc.update_graph(
                gid, erdos_renyi(30, 8.0, seed=12, name="er30")
            )
            # the retired snapshot's segment is unlinked by its record's
            # finalizer: here, inside update_graph, not whenever the
            # dispatcher next wakes
            assert old() is None
        finally:
            svc.shutdown()

    def test_shutdown_closes_what_an_in_process_executor_attached(self):
        # a thread pool runs run_job here, so the pool-bound job attaches
        # the registry's segment in this process; left open, its mapping
        # meets the graph's live views at interpreter exit
        script = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "from repro.graph import erdos_renyi\n"
            "from repro.patterns import PATTERNS\n"
            "from repro.service import QueryService, worker\n"
            "pool = ThreadPoolExecutor(1)\n"
            "svc = QueryService(mode='process', max_workers=1, "
            "executor=pool)\n"
            "gid = svc.register_graph(erdos_renyi(60, 4.0, seed=1))\n"
            "print(svc.submit(gid, PATTERNS['3CF']).result(60).embeddings)\n"
            "assert worker.worker_graph_cache_info()['attaches'] == 1\n"
            "svc.shutdown()\n"
            "pool.shutdown()\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [
            str(oracle(erdos_renyi(60, 4.0, seed=1), "3CF"))
        ]
        assert "BufferError" not in done.stderr


# ---------------------------------------------------------------------------
# (e) an idle service runs a light job on the thread that submitted it
# ---------------------------------------------------------------------------


def submit_3cf(svc, gid):
    return svc.submit(gid, PATTERNS["3CF"], use_cache=False, engine="codegen")


class TestIdleRule:
    def test_a_warm_light_job_has_settled_when_submit_returns(
        self, small_er
    ):
        with QueryService(
            mode="process", max_workers=2, observability=True
        ) as svc:
            gid = svc.register_graph(small_er, "g")
            warm(svc, small_er, ["3CF"])
            handle = submit_3cf(svc, gid)
            assert handle.status is JobStatus.DONE
            assert handle.result().embeddings == oracle(small_er, "3CF")
            (event,) = dispatched(svc)
            assert event["where"] == "service"
            assert event["thread"] is threading.current_thread()
            # no dispatcher was woken and no pool was started
            assert svc._dispatcher is None and svc._executor is None
            stats = svc.stats()
            assert stats.worker_calls == 0
            assert stats.submitted == stats.completed == 1
            spans = svc._observation.tracer.finished()
        (job,) = [sp for sp in spans if sp.name == "service.job"]
        assert job.attrs["where"] == "service"
        assert not [sp for sp in spans if sp.name == "service.queued"]
        (run,) = [sp for sp in spans if sp.name == "worker.run_job"]
        assert run.parent_id == job.span_id
        assert job.start <= run.start <= run.end <= job.end

    @pytest.mark.parametrize("kind", ["cold", "heavy", "checked", "faulted"])
    def test_any_other_job_is_queued_and_dispatched(self, kind):
        core = DispatchState(
            8, max_workers=2, verify_fraction=1.0 if kind == "checked" else 0.0
        )
        if kind == "faulted":
            core.arm(FaultPlan(seed=1, specs=(FaultSpec(
                site="worker.run", kind=FaultKind.HANG, seconds=0.0,
            ),)))
        job = profiled(
            1, ms={"cold": math.inf, "heavy": 500}.get(kind, 0.2)
        )
        assert core.admit(job, 0) is False  # idle, and still queued
        assert core.next(0) is job and job.where == "pool"
        if kind == "faulted":
            assert job.faults  # the one draw, made by the refusal
        if kind == "checked":
            assert job.verify_engine == "event"

    def test_paused_a_warm_light_job_is_queued(self):
        core = DispatchState(8, max_workers=2, paused=True)
        job = profiled(1)
        assert core.admit(job, 0) is False
        assert core.next(0) is None
        core.resume()
        assert core.next(0) is job and job.where == "service"

    def test_a_pool_call_in_flight_queues_a_warm_light_job(self):
        core = DispatchState(8, max_workers=2)
        held = busy(core)
        job = profiled(1)
        assert core.admit(job, 0) is False
        # the light job runs on the dispatcher past the held call
        assert core.next(0) is job and job.where == "service"
        assert core.in_flight == 2 and held.where == "pool"

    def test_a_queued_job_queues_a_warm_light_job(self):
        # a crashed call leaves its job queued on its retry backoff:
        # queued, with nothing in flight
        core = DispatchState(8, max_workers=2)
        parked = busy(core)
        assert core.done(parked, Outcome.CRASH, 0).not_before > 0
        assert core.in_flight == 0 and core.queue.depth() == 1
        job = profiled(1)
        assert core.admit(job, 0) is False
        assert core.next(0) is job and job.where == "service"
        core.done(job, Outcome.OK, 0)
        assert core.next(0) == parked.not_before
        assert core.next(1) is parked and parked.where == "pool"

    def test_eight_submitters_against_an_idle_service(
        self, small_er, monkeypatch
    ):
        # closed-loop clients switching every 10 µs race each other to the
        # idle test: at most one of them runs a job at a time, pool calls
        # stay within the workers and every waiter is answered exactly
        pool = HeldPool(max_workers=8)
        pool.release.set()
        svc = QueryService(
            mode="process", max_workers=2, executor=pool, queue_limit=512
        )
        gid = svc.register_graph(small_er, "g")
        warm(svc, small_er, LIGHT[:3])
        warm(svc, small_er, ["TT"], seconds=0.5)
        monkeypatch.setattr(svc.predictor, "observe", lambda *args: None)
        clients: set[threading.Thread] = set()
        lock = threading.Lock()
        running = {"now": 0, "peak": 0}
        real_run_job = service_module.run_job

        def run_job(*args, **kwargs):
            mine = threading.current_thread() in clients
            if mine:
                with lock:
                    running["now"] += 1
                    running["peak"] = max(running["peak"], running["now"])
            try:
                return real_run_job(*args, **kwargs)
            finally:
                if mine:
                    with lock:
                        running["now"] -= 1

        monkeypatch.setattr(service_module, "run_job", run_job)
        want = {name: oracle(small_er, name) for name in LIGHT}
        wrong: list[tuple[str, int]] = []

        def client(offset):
            for i in range(30):
                name = "TT" if i % 5 == 0 else LIGHT[(offset + i) % 3]
                report = svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="codegen",
                ).result(timeout=120)
                if report.embeddings != want[name]:
                    wrong.append((name, report.embeddings))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(8)
            ]
            clients.update(threads)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown()
            pool.shutdown()
        assert wrong == []
        stats = svc.stats()
        assert stats.submitted == stats.completed == 8 * 30
        assert stats.in_flight == 0
        assert pool.peak <= svc.max_workers
        assert stats.worker_calls == 8 * 6
        assert running["peak"] <= 1

    def test_a_crash_here_is_retried_by_the_dispatcher(
        self, small_er, monkeypatch
    ):
        monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", 0.0)
        real_run_job = service_module.run_job
        crashed: list[threading.Thread] = []

        def run_job(*args, **kwargs):
            if not crashed:
                crashed.append(threading.current_thread())
                raise WorkerCrashError("worker died under 3CF (injected)")
            return real_run_job(*args, **kwargs)

        monkeypatch.setattr(service_module, "run_job", run_job)
        svc = QueryService(
            mode="process", max_workers=2, executor=InlineExecutor()
        )
        try:
            gid = svc.register_graph(small_er, "g")
            warm(svc, small_er, ["3CF"])
            handle = submit_3cf(svc, gid)
            assert crashed == [threading.current_thread()]
            # the requeue started the dispatcher, which runs the retry
            assert handle.result(timeout=60).embeddings == oracle(
                small_er, "3CF"
            )
            assert handle.status is JobStatus.DONE and handle.attempts == 2
            assert [(e["where"], e["thread"]) for e in dispatched(svc)] == [
                ("service", threading.current_thread()),
                ("service", svc._dispatcher),
            ]
            stats = svc.stats()
            assert (stats.completed, stats.failed, stats.retries) == (1, 0, 1)
            assert stats.worker_calls == 0
        finally:
            svc.shutdown()
