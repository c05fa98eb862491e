"""The resilience layer: fault injection, breakers, watchdog, degradation.

Deterministic chaos testing in the repo's established style — injectable
clocks, recorded sleeps and injectable executors keep every scenario
single-threaded and sleep-free except where a real pool is the point.
The closing chaos suite runs a seeded fault plan (crashes, hangs,
corrupted counts, memory stalls) against all three service modes and
asserts the service's core promise under fire: every query that is not
shed still returns the *correct* embedding count, and no waiter hangs.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core.api import XSetAccelerator
from repro.errors import (
    CircuitOpenError,
    FaultInjectionError,
    InjectedCrashError,
    JobTimeoutError,
    LoadShedError,
    WorkerCrashError,
)
from repro.patterns.pattern import PATTERNS
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthState,
    ResilienceConfig,
    Watchdog,
    active,
    assess,
    inject,
)
from repro.service import InlineExecutor, JobStatus, QueryService
from repro.service.service import MAX_RETRIES


class FakeClock:
    """Hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingSleep:
    def __init__(self) -> None:
        self.calls: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)


class FlakyExecutor(InlineExecutor):
    """Fails the first ``failures`` submissions like a dying worker."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        if self.submissions <= self.failures:
            raise BrokenExecutor(
                f"worker died (injected failure #{self.submissions})"
            )
        return super().submit(fn, *args, **kwargs)


class HangingExecutor:
    """Returns futures that never complete (a worker stuck forever)."""

    def __init__(self) -> None:
        self.futures: list[Future] = []

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self.futures.append(future)
        return future

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        pass


@pytest.fixture
def graph(small_er):
    return small_er


def make_service(graph, **kwargs):
    kwargs.setdefault("mode", "inline")
    svc = QueryService(**kwargs)
    gid = svc.register_graph(graph, graph_id="g")
    return svc, gid


# ---------------------------------------------------------------------------
# fault plans and injectors
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_for_job_is_deterministic(self):
        specs = (
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=0.5),
            FaultSpec(site="engine.batched", kind=FaultKind.CORRUPT,
                      rate=0.3),
        )
        a = FaultPlan(seed=42, specs=specs)
        b = FaultPlan(seed=42, specs=specs)
        for job_id in range(1, 50):
            for attempt in (1, 2, 3):
                assert a.for_job(job_id, attempt) == \
                    b.for_job(job_id, attempt)

    def test_seed_changes_assignment(self):
        spec = FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=0.5)
        picks = lambda seed: tuple(  # noqa: E731
            bool(FaultPlan(seed=seed, specs=(spec,)).for_job(j))
            for j in range(1, 40)
        )
        assert picks(1) != picks(2)

    def test_rate_one_always_assigns(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.HANG),
        ))
        assert all(plan.for_job(j) for j in range(1, 10))

    def test_max_fires_budget(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                      max_fires=2),
        ))
        hits = [bool(plan.for_job(j)) for j in range(1, 6)]
        assert hits == [True, True, False, False, False]
        assert plan.assigned() == {"worker.run:crash": 2}

    def test_invalid_specs_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultSpec(site="memory.stream", kind=FaultKind.STALL,
                      factor=0.0)
        with pytest.raises(FaultInjectionError):
            FaultSpec(site="engine.event", kind=FaultKind.CORRUPT, bit=-1)


class TestFaultInjector:
    def test_crash_is_crash_shaped_and_site_tagged(self):
        inj = FaultInjector((
            FaultSpec(site="worker.run", kind=FaultKind.CRASH),
        ))
        with pytest.raises(InjectedCrashError) as err:
            inj.fire("worker.run")
        assert isinstance(err.value, WorkerCrashError)
        assert err.value.site == "worker.run"
        assert inj.events == {"worker.run:crash": 1}

    def test_injected_crash_pickles_with_site(self):
        import pickle

        err = pickle.loads(pickle.dumps(InjectedCrashError("engine.event")))
        assert err.site == "engine.event"

    def test_one_shot_fires_once_on_selected_hit(self):
        sleep = RecordingSleep()
        inj = FaultInjector(
            (FaultSpec(site="worker.run", kind=FaultKind.HANG,
                       seconds=0.25, on_hit=1),),
            sleep=sleep,
        )
        inj.fire("worker.run")   # hit 0: not yet
        inj.fire("worker.run")   # hit 1: fires
        inj.fire("worker.run")   # spent
        assert sleep.calls == [0.25]
        assert inj.events == {"worker.run:hang": 1}

    def test_wrong_site_never_fires(self):
        inj = FaultInjector((
            FaultSpec(site="engine.batched", kind=FaultKind.CRASH),
        ))
        inj.fire("engine.event")
        inj.fire("worker.run")
        assert inj.events == {}

    def test_stall_inflates_every_access_counts_once(self):
        inj = FaultInjector((
            FaultSpec(site="memory.stream", kind=FaultKind.STALL,
                      factor=4.0),
        ))
        assert inj.stall("memory.stream", 10.0, 100.0) == (40.0, 400.0)
        assert inj.stall("memory.stream", 1.0, 2.0) == (4.0, 8.0)
        assert inj.events == {"memory.stream:stall": 1}

    def test_context_scoping(self):
        inj = FaultInjector(())
        assert active() is None
        with inject(inj) as armed:
            assert active() is armed
        assert active() is None


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_seconds", 30.0)
        return CircuitBreaker("batched", clock=clock, **kwargs), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # consumes the single probe slot
        assert not breaker.allow()   # concurrent probes bounded
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_clock(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure("wrong_result")
        assert breaker.state is BreakerState.OPEN
        clock.advance(29.0)
        assert not breaker.allow()
        snap = breaker.snapshot()
        assert snap.last_failure_reason == "wrong_result"
        assert snap.state == "open"


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------


class _StubJob:
    """Just enough of a Job for the watchdog's table."""

    class _Handle:
        def __init__(self, job_id):
            self.job_id = job_id
            self.pattern_name = "3CF"

    def __init__(self, job_id, deadline):
        self.handle = self._Handle(job_id)
        self.graph_id = "g"
        self.deadline = deadline


class TestWatchdog:
    def test_scan_pops_only_expired(self):
        clock = FakeClock()
        dog = Watchdog(clock)
        dog.watch(_StubJob(1, deadline=5.0))
        dog.watch(_StubJob(2, deadline=50.0))
        dog.watch(_StubJob(3, deadline=None))
        clock.advance(10.0)
        expired = dog.scan()
        assert [job.handle.job_id for job, _ in expired] == [1]
        assert dog.running_ids() == (2, 3)
        assert dog.abandoned == 1

    def test_unwatch_claims_ownership_exactly_once(self):
        clock = FakeClock()
        dog = Watchdog(clock)
        dog.watch(_StubJob(7, deadline=1.0))
        clock.advance(2.0)
        assert dog.scan()            # watchdog claimed it...
        assert not dog.unwatch(7)    # ...so the completion side must not
        dog.watch(_StubJob(8, deadline=1.0))
        assert dog.unwatch(8)        # completion first: scan finds nothing
        assert dog.scan() == []

    def test_enforcement_off_never_abandons(self):
        clock = FakeClock()
        dog = Watchdog(clock, enforce_deadlines=False)
        dog.watch(_StubJob(1, deadline=1.0))
        clock.advance(100.0)
        assert dog.scan() == []


# ---------------------------------------------------------------------------
# degradation state machine
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_watermarks(self):
        assert assess(0, 100, ()) is HealthState.HEALTHY
        assert assess(49, 100, ()) is HealthState.HEALTHY
        assert assess(50, 100, ()) is HealthState.DEGRADED
        assert assess(90, 100, ()) is HealthState.OVERLOADED

    def test_any_non_closed_breaker_degrades(self):
        states = (BreakerState.CLOSED, BreakerState.OPEN)
        assert assess(0, 100, states) is HealthState.DEGRADED
        assert assess(
            0, 100, (BreakerState.HALF_OPEN,)
        ) is HealthState.DEGRADED


# ---------------------------------------------------------------------------
# service integration: satellites
# ---------------------------------------------------------------------------


class TestNonPositiveTimeout:
    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_rejected_at_submit_as_timeout(self, graph, timeout):
        svc, gid = make_service(graph)
        handle = svc.submit(gid, PATTERNS["3CF"], timeout=timeout)
        assert handle.status is JobStatus.TIMEOUT
        with pytest.raises(JobTimeoutError, match="deadline expired"):
            handle.result()
        stats = svc.stats()
        assert stats.timed_out == 1
        assert stats.submitted == 1
        assert stats.completed == 0
        assert stats.metrics['repro_jobs_timed_out_total'] == 1.0

    def test_traced_submit_closes_span(self, graph):
        svc, gid = make_service(graph, observability=True)
        svc.submit(gid, PATTERNS["3CF"], timeout=0)
        spans = svc._observation.tracer.finished()
        job_spans = [s for s in spans if s.name == "service.job"]
        assert len(job_spans) == 1
        assert job_spans[0].attrs["outcome"] == "timeout"


class TestLoadShedding:
    def test_overloaded_sheds_low_priority_only(self, graph):
        svc, gid = make_service(
            graph, queue_limit=10, start_paused=True
        )
        for _ in range(9):  # 9/10 >= the 0.9 overload watermark
            svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        assert svc.health().state is HealthState.OVERLOADED
        with pytest.raises(LoadShedError, match="overloaded"):
            svc.submit(gid, PATTERNS["TT"], priority=1, use_cache=False)
        # important work (priority < shed floor) is still accepted
        keep = svc.submit(gid, PATTERNS["TT"], priority=0, use_cache=False)
        stats = svc.stats()
        assert stats.shed == 1
        assert stats.metrics["repro_jobs_shed_total"] == 1.0
        svc.resume()
        assert keep.result(timeout=60).embeddings >= 0
        svc.shutdown()

    def test_disabled_profile_never_sheds(self, graph):
        svc, gid = make_service(
            graph, queue_limit=10, start_paused=True,
            resilience=ResilienceConfig.disabled(),
        )
        for _ in range(9):
            svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        svc.submit(gid, PATTERNS["TT"], priority=5, use_cache=False)
        assert svc.stats().shed == 0
        assert svc.stats().health == "healthy"


class TestBreakerRouting:
    def trip(self, svc, engine):
        board = svc._breakers
        for _ in range(svc.resilience.failure_threshold):
            board.for_engine(engine).record_failure()

    def test_open_breaker_reroutes_to_fallback(self, graph):
        clock = FakeClock()
        svc, gid = make_service(
            graph, clock=clock,
            resilience=ResilienceConfig(
                fallbacks=(("batched", "event"),)
            ),
        )
        self.trip(svc, "batched")
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched",
                            use_cache=False)
        report = handle.result(timeout=60)
        expected = XSetAccelerator(engine="event").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert report.embeddings == expected
        assert handle.engine == "event"
        stats = svc.stats()
        assert stats.rerouted == 1
        assert stats.health == "degraded"  # one breaker is open

    def test_fail_fast_without_fallback_raises_typed(self, graph):
        clock = FakeClock()
        svc, gid = make_service(
            graph, clock=clock,
            resilience=ResilienceConfig(fail_fast=True),
        )
        self.trip(svc, "batched")
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched",
                            use_cache=False)
        assert handle.status is JobStatus.FAILED
        with pytest.raises(CircuitOpenError, match="breaker is open"):
            handle.result()

    def test_advisory_default_dispatches_through_open_breaker(self, graph):
        clock = FakeClock()
        svc, gid = make_service(graph, clock=clock)  # default profile
        self.trip(svc, "batched")
        report = svc.count(gid, PATTERNS["3CF"], engine="batched",
                           use_cache=False)
        expected = XSetAccelerator(engine="batched").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert report.embeddings == expected
        assert svc.stats().rerouted == 0

    def test_crash_exhaustion_falls_back_to_second_engine(self, graph):
        sleep = RecordingSleep()
        executor = FlakyExecutor(failures=3)  # attempts 1..3 all crash
        svc, gid = make_service(
            graph, executor=executor, sleep=sleep,
            resilience=ResilienceConfig(
                fallbacks=(("batched", "event"),)
            ),
        )
        handle = svc.submit(gid, PATTERNS["3CF"], engine="batched",
                            use_cache=False)
        report = handle.result(timeout=60)
        expected = XSetAccelerator(engine="event").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert report.embeddings == expected
        assert handle.engine == "event"
        stats = svc.stats()
        assert stats.rerouted == 1
        assert stats.retries == MAX_RETRIES
        assert stats.failed == 0


class TestCrossCheck:
    def corrupt_config(self, **overrides):
        overrides.setdefault("verify_fraction", 1.0)
        overrides.setdefault("fallbacks", (("batched", "event"),))
        return ResilienceConfig(**overrides)

    def test_mismatch_serves_verified_report(self, graph):
        svc, gid = make_service(
            graph, resilience=self.corrupt_config()
        )
        svc.arm_faults(FaultPlan(seed=1, specs=(
            FaultSpec(site="engine.batched", kind=FaultKind.CORRUPT,
                      bit=5),
        )))
        report = svc.count(gid, PATTERNS["3CF"], engine="batched",
                           use_cache=False)
        expected = XSetAccelerator(engine="batched").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert report.embeddings == expected  # the verified count won
        assert report.notes["crosscheck"]["mismatch"] is True
        assert report.notes["injected"] == {"engine.batched:corrupt": 1}
        stats = svc.stats()
        assert stats.crosscheck_mismatches == 1
        assert stats.faults_injected == 1
        board = svc._breakers
        snap = board.for_engine("batched").snapshot()
        assert snap.last_failure_reason == "wrong_result"

    def test_corrupted_reports_never_poison_the_cache(self, graph):
        svc, gid = make_service(graph)  # verify off: corruption lands
        svc.arm_faults(FaultPlan(seed=1, specs=(
            FaultSpec(site="engine.batched", kind=FaultKind.CORRUPT,
                      bit=5),
        )))
        expected = XSetAccelerator(engine="batched").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        bad = svc.count(gid, PATTERNS["3CF"], engine="batched")
        assert bad.embeddings == expected ^ (1 << 5)  # visibly corrupt
        svc.arm_faults(None)
        good = svc.count(gid, PATTERNS["3CF"], engine="batched")
        assert good.embeddings == expected
        assert good.notes == {}

    def test_sampling_is_deterministic_per_job_id(self, graph):
        cfg = self.corrupt_config(verify_fraction=0.5, verify_seed=9)
        svc_a, gid_a = make_service(graph, resilience=cfg)
        svc_b, gid_b = make_service(graph, resilience=cfg)
        checked = []
        for svc, gid in ((svc_a, gid_a), (svc_b, gid_b)):
            picks = []
            for _ in range(12):
                report = svc.count(gid, PATTERNS["3CF"],
                                   engine="batched", use_cache=False)
                picks.append("crosscheck" in report.notes)
            checked.append(picks)
        assert checked[0] == checked[1]
        assert any(checked[0]) and not all(checked[0])


class TestRunningDeadlineWatchdog:
    def test_abandons_hung_job_and_drops_late_result(self, graph):
        clock = FakeClock()
        executor = HangingExecutor()
        svc, gid = make_service(graph, clock=clock, executor=executor)
        handle = svc.submit(gid, PATTERNS["3CF"], timeout=5.0,
                            use_cache=False)
        assert handle.status is JobStatus.RUNNING
        assert svc.check_watchdog() == 0   # deadline not reached yet
        clock.advance(10.0)
        assert svc.check_watchdog() == 1
        assert handle.status is JobStatus.TIMEOUT
        with pytest.raises(JobTimeoutError, match="deadline expired"):
            handle.result()
        stats = svc.stats()
        assert stats.abandoned == 1
        assert stats.timed_out == 1
        assert stats.in_flight == 0        # the slot was freed
        assert stats.metrics["repro_jobs_abandoned_total"] == 1.0
        # the hung worker finally answers: the unwatch handshake drops it
        future = executor.futures[0]
        if not future.cancelled():
            future.set_result(object())
        assert svc.stats().completed == 0
        assert handle.status is JobStatus.TIMEOUT

    def test_jobs_without_deadline_run_forever(self, graph):
        clock = FakeClock()
        executor = HangingExecutor()
        svc, gid = make_service(graph, clock=clock, executor=executor)
        handle = svc.submit(gid, PATTERNS["3CF"], use_cache=False)
        clock.advance(1e6)
        assert svc.check_watchdog() == 0
        assert handle.status is JobStatus.RUNNING

    def test_disabled_profile_never_abandons(self, graph):
        clock = FakeClock()
        executor = HangingExecutor()
        svc, gid = make_service(
            graph, clock=clock, executor=executor,
            resilience=ResilienceConfig.disabled(),
        )
        handle = svc.submit(gid, PATTERNS["3CF"], timeout=5.0,
                            use_cache=False)
        clock.advance(10.0)
        assert svc.check_watchdog() == 0
        assert handle.status is JobStatus.RUNNING

    def test_thread_mode_watchdog_thread_fires(self, graph):
        # a real hang (injected HANG > deadline) on a real thread pool:
        # the background watchdog must release the waiter with TIMEOUT
        svc = QueryService(
            mode="thread", max_workers=1,
            resilience=ResilienceConfig(watchdog_interval=0.01),
        )
        gid = svc.register_graph(graph, graph_id="g")
        svc.arm_faults(FaultPlan(seed=0, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.HANG,
                      seconds=2.0),
        )))
        handle = svc.submit(gid, PATTERNS["3CF"], timeout=0.05,
                            use_cache=False)
        with pytest.raises(JobTimeoutError):
            handle.result(timeout=30)
        assert handle.status is JobStatus.TIMEOUT
        assert svc._watchdog.alive
        assert svc.stats().abandoned == 1
        svc.shutdown()
        assert not svc._watchdog.alive


class TestStuckDispatcherDetection:
    def test_shutdown_reports_unjoinable_dispatcher(self, graph, caplog):
        import logging
        import threading
        import time as _time

        svc, gid = make_service(graph, mode="thread")
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, daemon=True)
        stuck.start()
        svc._dispatcher = stuck  # stand-in for a wedged dispatcher
        with caplog.at_level(logging.WARNING, "repro.service.service"):
            t0 = _time.perf_counter()
            svc.shutdown(join_timeout=0.05)
            elapsed = _time.perf_counter() - t0
        release.set()
        assert elapsed < 2.0  # did not block on the wedged thread
        assert any(
            "dispatcher thread failed to stop" in r.message
            for r in caplog.records
        )
        assert svc.stats().dispatcher_stuck is True
        assert svc.health().dispatcher_stuck is True

    def test_clean_shutdown_is_not_stuck(self, graph):
        svc, gid = make_service(graph, mode="thread")
        svc.count(gid, PATTERNS["3CF"], engine="batched")
        svc.shutdown()
        assert svc.stats().dispatcher_stuck is False


class TestUnarmedIsByteIdentical:
    @pytest.mark.parametrize("engine", ["batched", "event"])
    def test_default_resilience_matches_disabled(self, graph, engine):
        reports = []
        for cfg in (None, ResilienceConfig.disabled()):
            svc, gid = make_service(graph, resilience=cfg)
            reports.append(
                svc.count(gid, PATTERNS["TT"], engine=engine,
                          use_cache=False)
            )
        a, b = reports
        assert a.embeddings == b.embeddings
        assert a.cycles == b.cycles
        assert a.tasks == b.tasks
        assert a.set_ops == b.set_ops
        assert a.notes == {} and b.notes == {}
        # fully wired, selecting nothing: hardened, every armed spec rate 0
        svc, gid = make_service(
            graph, resilience=ResilienceConfig.hardened(verify_fraction=0.0)
        )
        svc.arm_faults(FaultPlan(seed=0, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=0.0),
            FaultSpec(site="memory.stream", kind=FaultKind.STALL, rate=0.0),
        )))
        c = svc.count(gid, PATTERNS["TT"], engine=engine, use_cache=False)
        assert (c.embeddings, c.cycles, c.tasks, c.set_ops, c.notes) == (
            b.embeddings, b.cycles, b.tasks, b.set_ops, {}
        )
        stats = svc.stats()
        assert stats.faults_injected == stats.failed == 0
        assert stats.shed == stats.rerouted == stats.abandoned == 0
        assert stats.crosscheck_mismatches == 0

    def test_stall_fault_only_changes_timing(self, graph):
        svc, gid = make_service(graph)
        clean = svc.count(gid, PATTERNS["3CF"], engine="event",
                          use_cache=False)
        svc.arm_faults(FaultPlan(seed=0, specs=(
            FaultSpec(site="memory.stream", kind=FaultKind.STALL,
                      factor=10.0),
        )))
        stalled = svc.count(gid, PATTERNS["3CF"], engine="event",
                            use_cache=False)
        assert stalled.embeddings == clean.embeddings
        assert stalled.cycles > clean.cycles
        assert stalled.notes["injected"] == {"memory.stream:stall": 1}


class TestStallSiteReadOncePerRun:
    """The simulator reads the ``memory.stream`` site once, at the start
    of each run, and every stream of that run sees the pinned injector."""

    #: 3CF on the 30-vertex ER graph under a factor-10 STALL; the value
    #: the per-stream read of the site produced, to the digit
    STALLED_CYCLES = 1128.3333333333333
    STALL = FaultSpec(site="memory.stream", kind=FaultKind.STALL,
                      factor=10.0)

    def test_seeded_plan_through_the_service(self, graph):
        svc, gid = make_service(graph)
        svc.arm_faults(FaultPlan(seed=0, specs=(self.STALL,)))
        stalled = svc.count(gid, PATTERNS["3CF"], engine="event",
                            use_cache=False)
        assert stalled.cycles == self.STALLED_CYCLES
        assert stalled.notes["injected"] == {"memory.stream:stall": 1}

    def test_armed_after_construction_is_seen_at_run(self, graph):
        from repro.core import xset_default
        from repro.patterns import build_plan
        from repro.sim.accelerator import AcceleratorSim

        sim = AcceleratorSim(graph, build_plan(PATTERNS["3CF"]),
                             xset_default())
        assert sim.memory.injector is None
        with inject(FaultInjector((self.STALL,))) as inj:
            report = sim.run()
        assert report.cycles == self.STALLED_CYCLES
        assert inj.events == {"memory.stream:stall": 1}


# ---------------------------------------------------------------------------
# the chaos suite: all three modes, seeded faults, exact counts
# ---------------------------------------------------------------------------

CHAOS_PATTERNS = ("3CF", "TT", "WEDGE", "DIA")


def chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, specs=(
        # two crash-shaped deaths somewhere in the run (retried/rerouted)
        FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                  rate=0.5, max_fires=2),
        # slow compute that still finishes correctly
        FaultSpec(site="worker.run", kind=FaultKind.HANG,
                  rate=0.3, seconds=0.02),
        # silent bit-flips in the batched datapath (caught by cross-check)
        FaultSpec(site="engine.batched", kind=FaultKind.CORRUPT,
                  rate=0.5, bit=4),
        # degraded memory under the event engine
        FaultSpec(site="memory.stream", kind=FaultKind.STALL,
                  rate=0.3, factor=6.0),
    ))


@pytest.mark.parametrize("mode", ["inline", "thread", "process"])
def test_chaos_every_query_correct_no_waiter_hangs(graph, mode):
    expected = {
        name: XSetAccelerator(engine="batched").count(
            graph, PATTERNS[name]
        ).embeddings
        for name in CHAOS_PATTERNS
    }
    svc = QueryService(
        mode=mode,
        max_workers=2 if mode != "inline" else None,
        resilience=ResilienceConfig.hardened(verify_fraction=1.0),
    )
    try:
        gid = svc.register_graph(graph, graph_id="g")
        svc.arm_faults(chaos_plan(seed=2024))
        handles = [
            (name, svc.submit(gid, PATTERNS[name], engine="batched",
                              use_cache=False))
            for _ in range(3)
            for name in CHAOS_PATTERNS
        ]
        for name, handle in handles:
            # a hung waiter fails here with JobTimeoutError, not a hang
            report = handle.result(timeout=120)
            assert report.embeddings == expected[name], (
                f"{mode}: {name} returned a wrong count under chaos "
                f"(notes={report.notes})"
            )
            assert handle.status is JobStatus.DONE
        stats = svc.stats()
        assert stats.completed == len(handles)
        assert stats.failed == 0
        health = svc.health()
        assert health.faults_injected > 0, "the chaos plan never fired"
        assert stats.metrics["repro_jobs_submitted_total"] == len(handles)
    finally:
        svc.shutdown()


def test_chaos_replay_is_deterministic(graph):
    """Same seed, same job ids => the same faults are assigned."""
    runs = []
    for _ in range(2):
        svc, gid = make_service(
            graph,
            resilience=ResilienceConfig.hardened(verify_fraction=1.0),
        )
        plan = chaos_plan(seed=7)
        svc.arm_faults(plan)
        for name in CHAOS_PATTERNS:
            svc.count(gid, PATTERNS[name], engine="batched",
                      use_cache=False)
        runs.append(plan.assigned())
    assert runs[0] == runs[1]
