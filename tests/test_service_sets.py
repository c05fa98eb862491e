"""Sets: a process-mode dispatch carries every queued light job it can.

The queue side (``JobQueue.pop_set``) is driven single-threaded against a
hand-advanced clock; the service side runs its dispatcher thread against
either the real two-worker pool or an in-process executor stub, and is
waited on through job handles — no sleeps anywhere.
"""

from __future__ import annotations

import random
import sys
import threading
import weakref
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.errors import XSetError
from repro.graph import erdos_renyi
from repro.patterns.executor import count_embeddings
from repro.patterns.pattern import PATTERNS
from repro.patterns.plan import build_plan
from repro.resilience import FaultPlan, FaultSpec, ResilienceConfig
from repro.sched.adaptive import (
    CostPredictor,
    SchedulingConfig,
    query_features,
)
from repro.service import (
    InlineExecutor,
    Job,
    JobHandle,
    JobQueue,
    JobStatus,
    QueryService,
    RetryPolicy,
)
from repro.service import worker
from repro.service.cache import pattern_cache_key
from repro.service.service import LIGHT_SECONDS, SET_MAX_JOBS
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


def queued(job_id, predicted, *, enqueued_at=0.0, **fields) -> Job:
    handle = JobHandle(
        job_id=job_id, graph_id="g", pattern_name="3CF",
        engine="batched", cancel_cb=lambda h: False,
    )
    return Job(
        handle=handle, graph_id="g", fingerprint="fp", plan=None,
        config=None, cache_key=None, seq=job_id,
        predicted_seconds=predicted, enqueued_at=enqueued_at, **fields,
    )


def light_run(jobs, nxt) -> bool:
    """Stand-in for the service's rule: up to three cheap jobs a set."""
    return len(jobs) < 3 and max(
        jobs[0].predicted_seconds, nxt.predicted_seconds
    ) < 1.0


def oracle(graph, name) -> int:
    return count_embeddings(graph, build_plan(PATTERNS[name])).embeddings


def ids(jobs) -> list[int]:
    return [job.handle.job_id for job in jobs]


# ---------------------------------------------------------------------------
# (a) the queue: pop_set is pop, repeated, with a veto
# ---------------------------------------------------------------------------


class TestPopSet:
    def test_sets_follow_policy_order_and_the_refused_job_keeps_its_place(
        self,
    ):
        queue = JobQueue(limit=16, policy="cost")
        # two jobs tie on cost: FIFO by seq decides, also after a refusal
        costs = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.4, 5: 0.4, 6: 5.0, 7: 0.5}
        jobs = {i: queued(i, cost) for i, cost in costs.items()}
        for job in jobs.values():
            queue.push(job)
        assert ids(queue.pop_set(0.0, light_run)) == [2, 3, 1]
        # job 4 was looked at and refused (the set was full): it is still
        # the next one out, ahead of its later twin, under its own seq
        assert queue.depth() == 4
        assert jobs[4].seq == 4 and not jobs[4].taken
        assert ids(queue.pop_set(0.0, light_run)) == [4, 5, 7]
        # the first job of a set is popped unasked, whatever it costs
        assert ids(queue.pop_set(0.0, light_run)) == [6]
        assert queue.pop_set(0.0, light_run) == []

    def test_a_heavy_job_ends_the_set_before_it(self):
        queue = JobQueue(limit=8, policy="fifo")
        for i, cost in enumerate([0.1, 0.1, 5.0, 0.1], start=1):
            queue.push(queued(i, cost))
        # fifo order is not jumped to fill a set
        assert ids(queue.pop_set(0.0, light_run)) == [1, 2]
        assert ids(queue.pop_set(0.0, light_run)) == [3]
        assert ids(queue.pop_set(0.0, light_run)) == [4]

    def test_tombstone_deadline_and_backoff_inside_the_run(self):
        reaped = []
        queue = JobQueue(limit=8, on_timeout=reaped.append, policy="cost")
        first = queued(1, 0.1)
        cancelled = queued(2, 0.2)
        expired = queued(3, 0.3, deadline=5.0)
        parked = queued(4, 0.4, not_before=20.0)
        last = queued(5, 0.5)
        for job in (first, cancelled, expired, parked, last):
            queue.push(job)
        cancelled.handle._finish(JobStatus.CANCELLED)
        assert ids(queue.pop_set(10.0, light_run)) == [1, 5]
        assert reaped == [expired]
        assert expired.handle.status is JobStatus.TIMEOUT
        # the job on backoff was stepped over, not dropped and not run
        assert queue.depth() == 1
        assert queue.pop_set(10.0, light_run) == []
        assert ids(queue.pop_set(20.0, light_run)) == [4]

    def test_a_starving_head_joins_the_set_ahead_of_cheaper_jobs(self):
        queue = JobQueue(limit=8, policy="cost", age_limit=2.0)
        old_a = queued(1, 0.8, enqueued_at=0.0)
        old_b = queued(2, 0.9, enqueued_at=1.0)
        for job in (old_a, old_b, queued(3, 0.1, enqueued_at=9.0),
                    queued(4, 0.2, enqueued_at=9.0)):
            queue.push(job)
        # both old jobs are past the aging bound at t=10: arrival order
        # first, then cost order
        assert ids(queue.pop_set(10.0, light_run)) == [1, 2, 3]
        assert ids(queue.pop_set(10.0, light_run)) == [4]

    def test_a_starving_head_that_is_refused_stays_the_head(self):
        queue = JobQueue(limit=8, policy="cost", age_limit=2.0)
        heavy = queued(2, 5.0, enqueued_at=1.0)
        for job in (queued(1, 0.8, enqueued_at=0.0), heavy,
                    queued(3, 0.1, enqueued_at=9.0)):
            queue.push(job)
        assert ids(queue.pop_set(10.0, light_run)) == [1]
        assert not heavy.taken and queue.depth() == 2
        # still ahead of the cheap newcomer, and still alone
        assert ids(queue.pop_set(10.0, light_run)) == [2]
        assert ids(queue.pop_set(10.0, light_run)) == [3]


# ---------------------------------------------------------------------------
# (b) the service: a seeded mix through the real pool
# ---------------------------------------------------------------------------


def dispatched(svc) -> list[dict]:
    return [dict(event.data) for event in svc.flight.events("dispatch")]


def calls_of(events) -> dict[int, list[dict]]:
    calls: dict[int, list[dict]] = {}
    for event in events:
        calls.setdefault(event["call"], []).append(event)
    return calls


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
            resilience=ResilienceConfig(verify_fraction=0.25, verify_seed=3),
        )
        try:
            for gid, graph in graphs.items():
                svc.register_graph(graph, gid)
            submitted = []
            for _ in range(48):
                gid = rng.choice(sorted(graphs))
                name = rng.choice(LIGHT)
                kind = rng.choice(["light"] * 4 + ["heavy", "deadline"])
                handle = svc.submit(
                    gid, PATTERNS[name], use_cache=False,
                    priority=rng.choice([0, 0, 0, 1]),
                    # the event engine's prior is 50x the vectorised ones'
                    engine="event" if kind == "heavy" else "batched",
                    timeout=30.0 if kind == "deadline" else None,
                )
                submitted.append((handle, gid, name))
            # what one-by-one dispatch would do: the heap, in heap order
            queue = sorted(svc._queue._heap, key=lambda entry: entry[:2])
            expected = [job.handle.job_id for _, _, job in queue]
            jobs = {job.handle.job_id: job for _, _, job in queue}
            light = {
                job_id for job_id, job in jobs.items()
                if 0.0 < job.predicted_seconds < LIGHT_SECONDS
            }
            assert 0 < len(light) < len(jobs)  # the mix has both kinds
            svc.resume()
            for handle, gid, name in submitted:
                report = handle.result(timeout=120)
                assert handle.status is JobStatus.DONE
                assert report.embeddings == oracle(graphs[gid], name)
            stats = svc.stats()
            assert stats.submitted == stats.completed == len(submitted)
            assert stats.retries == stats.failed == stats.timed_out == 0
            events = dispatched(svc)
            assert [event["job_id"] for event in events] == expected
            calls = calls_of(events)
            assert stats.worker_calls == len(calls) < len(submitted)
            checked = {
                handle.job_id for handle, _, _ in submitted
                if "crosscheck" in handle.result().notes
            }
            assert checked and checked & light
            for members in calls.values():
                assert {e["set_size"] for e in members} == {len(members)}
                assert len(members) <= SET_MAX_JOBS
                if len(members) > 1:
                    for event in members:
                        job = jobs[event["job_id"]]
                        assert job.handle.job_id in light
                        assert job.deadline is None
                        assert job.handle.job_id not in checked
            sizes = sorted(len(members) for members in calls.values())
            assert sizes[-1] > 1
            text = svc.metrics_text()
            assert f"repro_worker_calls_total {len(calls)}" in text
            assert f"repro_jobs_per_call_sum {len(submitted)}" in text
        finally:
            svc.shutdown()

    def test_an_armed_fault_plan_sends_every_job_alone(self, small_er):
        svc = QueryService(
            mode="process", max_workers=1, start_paused=True,
            executor=InlineExecutor(),
        )
        try:
            gid = svc.register_graph(small_er, "g")
            svc.arm_faults(FaultPlan(seed=1, specs=(
                FaultSpec(site="worker.run", kind="crash", rate=0.0),
            )))
            handles = [
                svc.submit(
                    gid, PATTERNS["3CF"], use_cache=False, engine="batched"
                )
                for _ in range(4)
            ]
            svc.resume()
            for handle in handles:
                handle.result(timeout=60)
            assert [e["set_size"] for e in dispatched(svc)] == [1] * 4
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# (c) a call that dies, a job that fails
# ---------------------------------------------------------------------------


class BreaksFirstSet(InlineExecutor):
    """Runs calls in-process; the first ``run_jobs`` call dies like a
    broken pool instead."""

    def __init__(self) -> None:
        self.fns: list[str] = []

    def submit(self, fn, /, *args, **kwargs):
        self.fns.append(fn.__name__)
        if fn is worker.run_jobs and self.fns.count("run_jobs") == 1:
            raise BrokenExecutor("worker died under a set (injected)")
        return super().submit(fn, *args, **kwargs)


def paused_fifo_service(graph, executor):
    svc = QueryService(
        mode="process", max_workers=1, start_paused=True, executor=executor,
        retry=RetryPolicy(backoff_seconds=0.0),
        scheduling=SchedulingConfig(policy="fifo"),
    )
    return svc, svc.register_graph(graph, "g")


class TestSetFailures:
    def test_a_crashed_call_retries_each_of_its_jobs(self, small_er):
        executor = BreaksFirstSet()
        svc, gid = paused_fifo_service(small_er, executor)
        try:
            names = ["3CF", "WEDGE", "DIA", "3CF", "WEDGE"]
            handles = [
                svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="batched"
                )
                for name in names
            ]
            svc.resume()
            for handle, name in zip(handles, names):
                report = handle.result(timeout=60)
                assert report.embeddings == oracle(small_er, name)
                assert handle.attempts == 2
            stats = svc.stats()
            assert stats.retries == len(names)
            assert stats.completed == len(names) and stats.failed == 0
            assert stats.in_flight == 0 and svc._riders == 0
            # the executor seam is two shapes wide
            assert set(executor.fns) <= {"run_job", "run_jobs"}
            assert executor.fns[0] == "run_jobs"
        finally:
            svc.shutdown()

    def test_an_engine_error_fails_its_own_job_only(
        self, small_er, monkeypatch
    ):
        real = worker.run_job

        def run_job(graph_id, fingerprint, payload, plan, config, **kwargs):
            if plan.pattern.name == "DIA":
                raise XSetError("engine bug in DIA (injected)")
            return real(
                graph_id, fingerprint, payload, plan, config, **kwargs
            )

        monkeypatch.setattr(worker, "run_job", run_job)
        svc, gid = paused_fifo_service(small_er, InlineExecutor())
        try:
            names = ["3CF", "DIA", "WEDGE"]
            handles = [
                svc.submit(
                    gid, PATTERNS[name], use_cache=False, engine="batched"
                )
                for name in names
            ]
            svc.resume()
            for handle in handles:
                handle.exception()  # wait, whatever the outcome
            assert [e["set_size"] for e in dispatched(svc)] == [3, 3, 3]
            assert [h.status for h in handles] == [
                JobStatus.DONE, JobStatus.FAILED, JobStatus.DONE
            ]
            with pytest.raises(XSetError, match="injected"):
                handles[1].result()
            for handle, name in ((handles[0], "3CF"), (handles[2], "WEDGE")):
                assert handle.result().embeddings == oracle(small_er, name)
            stats = svc.stats()
            assert (stats.completed, stats.failed, stats.retries) == (2, 1, 0)
            assert stats.in_flight == 0 and svc._riders == 0
        finally:
            svc.shutdown()


class CountingPool(ThreadPoolExecutor):
    """A thread pool that knows how many of its calls are unfinished."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers=max_workers)
        self.lock = threading.Lock()
        self.open = self.peak = 0

    def submit(self, fn, /, *args, **kwargs):
        with self.lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
        future = super().submit(fn, *args, **kwargs)
        # added before the service's own callback, so it also runs first:
        # a call is closed here before the service can send the next
        future.add_done_callback(self._closed)
        return future

    def _closed(self, _future) -> None:
        with self.lock:
            self.open -= 1


class TestSetAccounting:
    def test_calls_in_flight_never_exceed_the_workers_under_stress(
        self, small_er
    ):
        # submitters, dispatcher and completion threads outnumber the
        # cores and switch every 10 µs: a lost update of the in-flight or
        # rider count would over-dispatch, or leave the gate shut
        pool = CountingPool(max_workers=8)
        svc = QueryService(
            mode="process", max_workers=3, executor=pool, queue_limit=512
        )
        gid = svc.register_graph(small_er, "g")
        handles: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(offset):
                for i in range(60):
                    name = LIGHT[(offset + i) % 3]
                    handles.append((name, svc.submit(
                        gid, PATTERNS[name], use_cache=False,
                        engine="batched",
                    )))

            clients = [
                threading.Thread(target=client, args=(k,)) for k in range(4)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive()
            for name, handle in handles:
                assert handle.result(timeout=120).embeddings == oracle(
                    small_er, name
                )
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown()
            pool.shutdown()
        stats = svc.stats()
        assert stats.submitted == stats.completed == 240
        assert stats.in_flight == 0 and svc._riders == 0
        assert 0 < pool.peak <= 3
        assert stats.worker_calls < 240  # sets did form
        assert stats.metrics["repro_jobs_per_call_sum"] == 240


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
        predicted = predictor.predict(features, "codegen").seconds
        assert 0.00015 <= predicted <= 0.0006
        # an ordinary slow sample still only moves the average
        predictor.observe(features, "codegen", 0.0006)
        assert predictor.predict(features, "codegen").seconds < 0.0005

    @pytest.mark.parametrize("wall_seconds", [0.25, 0.0])
    def test_the_service_trains_on_the_workers_own_time(
        self, small_er, wall_seconds
    ):
        with QueryService(
            mode="inline", executor=Canned(wall_seconds)
        ) as svc:
            gid = svc.register_graph(small_er, "g")
            svc.count(gid, PATTERNS["3CF"], use_cache=False)
            (learned,) = svc.predictor._profiles.values()
        if wall_seconds:
            assert learned == wall_seconds
        else:
            # a report without one: dispatch-to-settle, as before
            assert 0.0 < learned < 0.1


# ---------------------------------------------------------------------------
# trace alignment and lifetime of a finished set
# ---------------------------------------------------------------------------


def paused_burst(svc, gid, n=12):
    handles = [
        svc.submit(
            gid, PATTERNS[LIGHT[i % len(LIGHT)]], use_cache=False,
            engine="batched",
        )
        for i in range(n)
    ]
    svc.resume()
    for handle in handles:
        handle.result(timeout=120)
    return handles


class TestSetAftermath:
    def test_set_mates_do_not_overlap_in_the_trace(self, medium_er):
        # one worker: a call starts when it is dispatched, which is what
        # anchoring worker spans at the dispatch timestamp assumes
        with QueryService(
            mode="process", max_workers=1, start_paused=True,
            observability=True,
        ) as svc:
            gid = svc.register_graph(medium_er, "g")
            paused_burst(svc, gid)
            assert max(e["set_size"] for e in dispatched(svc)) > 1
            runs: dict[int, list[tuple[float, float]]] = {}
            for event in svc.export_trace():
                if event.get("name") == "worker.run_job":
                    runs.setdefault(event["args"]["pid"], []).append(
                        (event["ts"], event["ts"] + event["dur"])
                    )
        assert sum(len(spans) for spans in runs.values()) == 12
        for spans in runs.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1.0  # µs; float rounding only

    def test_a_drained_burst_pins_no_graph_record(self, small_er):
        svc = QueryService(mode="process", max_workers=2, start_paused=True)
        try:
            gid = svc.register_graph(small_er, "g")
            asleep = threading.Event()
            real_wait = svc._cond.wait

            def wait(timeout=None):
                if threading.current_thread() is svc._dispatcher:
                    asleep.set()
                return real_wait(timeout)

            svc._cond.wait = wait
            paused_burst(svc, gid)
            assert max(e["set_size"] for e in dispatched(svc)) > 1
            # the dispatcher has found the queue empty and gone to sleep
            # with whatever its loop still holds
            asleep.clear()
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
