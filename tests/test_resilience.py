"""The resilience layer: fault injection, engine failures, degradation.

Deterministic chaos testing in the repo's established style — injectable
clocks, recorded sleeps and injectable executors keep every scenario
single-threaded and sleep-free except where a real pool is the point.
The closing chaos suite runs a seeded fault plan (crashes, hangs,
corrupted counts) against all three service modes and
asserts the service's core promise under fire: every query still returns
the *correct* embedding count, and no waiter hangs.
"""

from __future__ import annotations

import pytest

from repro.cluster.breaker import BreakerState, CircuitBreaker
from repro.core.api import XSetAccelerator
from repro.errors import (
    FaultInjectionError,
    InjectedCrashError,
    WorkerCrashError,
)
from repro.patterns.pattern import PATTERNS
from repro.resilience import (
    FAULT_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthState,
)
from repro.service import JobStatus, QueryService
from repro.service import core as core_module


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
            FaultSpec(site="worker.run", kind=FaultKind.CORRUPT,
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

    def test_invalid_specs_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultSpec(site="worker.run", kind=FaultKind.CORRUPT, bit=-1)

    def test_a_spec_that_can_never_fire_is_rejected(self):
        """Faults fire only in ``run_job`` and on the wire: a spec naming
        any other site, or a kind its site never applies, is refused at
        construction instead of sitting silent in an armed plan."""
        for site in ("engine.codegen", "engine.event", "memory.stream"):
            with pytest.raises(FaultInjectionError, match="site"):
                FaultSpec(site=site, kind=FaultKind.CORRUPT)
        for kind in (FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT):
            for site in ("comm.send", "comm.recv"):
                with pytest.raises(FaultInjectionError, match=kind.name):
                    FaultSpec(site=site, kind=kind)
        for kind in (FaultKind.DROP, FaultKind.DELAY,
                     FaultKind.CORRUPT_FRAME):
            with pytest.raises(FaultInjectionError, match=kind.name):
                FaultSpec(site="worker.run", kind=kind)
        assert FAULT_SITES == ("worker.run", "comm.send", "comm.recv")


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

    def test_a_spec_fires_once_on_its_sites_first_hit(self):
        sleep = RecordingSleep()
        inj = FaultInjector(
            (FaultSpec(site="worker.run", kind=FaultKind.HANG,
                       seconds=0.25),),
            sleep=sleep,
        )
        inj.fire("worker.run")   # first hit: fires
        inj.fire("worker.run")   # spent
        assert sleep.calls == [0.25]
        assert inj.events == {"worker.run:hang": 1}

    def test_wrong_site_never_fires(self):
        inj = FaultInjector((
            FaultSpec(site="comm.send", kind=FaultKind.DROP),
        ))
        inj.comm("comm.recv")
        inj.fire("worker.run")
        assert inj.events == {}


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_seconds", 30.0)
        return CircuitBreaker("codegen", clock=clock, **kwargs), clock

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
# degradation state machine
# ---------------------------------------------------------------------------


class TestDegradation:
    """The classification itself is ``DispatchState.health``, tested in
    ``test_service_core.py``."""

    def test_the_state_is_that_of_the_reported_depth(
        self, graph, monkeypatch
    ):
        """The queue depth can change between two reads: one report
        reads it once."""
        import itertools

        from repro.service import JobQueue

        svc, _ = make_service(graph, queue_limit=256)
        for report in ("health", "stats"):
            depths = itertools.chain([10], itertools.repeat(240))
            monkeypatch.setattr(JobQueue, "depth", lambda q: next(depths))
            if report == "health":
                health = svc.health()
                assert (health.queue_depth, health.state) == (
                    10, HealthState.HEALTHY
                )
            else:
                stats = svc.stats()
                assert (stats.queue_depth, stats.health) == (10, "healthy")
                assert stats.metrics["repro_queue_depth"] == 10


# ---------------------------------------------------------------------------
# service integration: satellites
# ---------------------------------------------------------------------------


def fail_engine(svc, gid, monkeypatch, engine="codegen"):
    """Give ``engine`` ``ENGINE_FAILURE_LIMIT`` failures: one job whose
    every attempt crashes, until it fails with its retries spent."""
    limit = core_module.ENGINE_FAILURE_LIMIT
    monkeypatch.setattr(core_module, "MAX_RETRIES", limit - 1)
    monkeypatch.setattr(core_module, "RETRY_BACKOFF_SECONDS", 0.0)
    svc.arm_faults(FaultPlan(seed=0, specs=(
        FaultSpec(site="worker.run", kind=FaultKind.CRASH, max_fires=limit),
    )))
    handle = svc.submit(gid, PATTERNS["3CF"], engine=engine,
                        use_cache=False)
    with pytest.raises(WorkerCrashError):
        handle.result(timeout=60)
    svc.arm_faults(None)
    assert svc.health().engine_failures == {engine: limit}


class TestEngineFailures:
    def test_a_failing_engine_still_runs_its_jobs(self, graph, monkeypatch):
        svc, gid = make_service(graph)
        fail_engine(svc, gid, monkeypatch)
        health = svc.health()
        assert health.state is HealthState.DEGRADED
        assert (
            f"engine[codegen]: {core_module.ENGINE_FAILURE_LIMIT} "
            "consecutive failures"
        ) in health.summary()
        assert svc.stats().health == "degraded"
        handle = svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                            use_cache=False)
        expected = XSetAccelerator(engine="codegen").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert handle.result(timeout=60).embeddings == expected
        assert handle.engine == "codegen"  # the engine it named

    def test_a_clean_run_clears_the_record(self, graph, monkeypatch):
        """A failing engine's warm light job runs in the pool, not on the
        submitting thread; that run's success clears the record, and the
        next such job runs in the service process again."""
        from repro.sched.adaptive import query_features
        from repro.service.cache import pattern_cache_key

        svc, gid = make_service(graph, mode="process", max_workers=1,
                                observability=True)
        with svc:
            features = query_features(
                graph, graph.fingerprint(),
                pattern_cache_key(PATTERNS["3CF"], None),
            )
            svc.predictor.observe(features, "codegen", 2e-4)
            # keep the shape light whatever the pool run measures
            monkeypatch.setattr(svc.predictor, "observe", lambda *a: None)
            fail_engine(svc, gid, monkeypatch)
            assert svc.health().state is HealthState.DEGRADED

            def where(handle):
                (span,) = [
                    sp for sp in svc._observation.tracer.finished()
                    if sp.name == "service.job"
                    and sp.attrs["job_id"] == handle.job_id
                ]
                return span.attrs["where"]

            health = svc.health()
            assert health.queue_depth == health.in_flight == 0  # idle
            pooled = svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                                use_cache=False)
            pooled.result(timeout=60)
            assert where(pooled) == "pool"  # refused on an idle service
            health = svc.health()
            assert health.state is HealthState.HEALTHY
            assert health.engine_failures == {}
            here = svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                              use_cache=False)
            assert here.status is JobStatus.DONE  # ran on this thread
            assert where(here) == "service"

    def test_concurrent_crashes_are_all_counted(self, graph, monkeypatch):
        """Pool threads settle crashes concurrently; each one reaches the
        engine's record."""
        import sys

        def crash(*args, **kwargs):
            raise WorkerCrashError("worker died (injected)")

        monkeypatch.setattr(core_module, "MAX_RETRIES", 0)
        monkeypatch.setattr("repro.service.service.run_job", crash)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(mode="thread", max_workers=8) as svc:
                gid = svc.register_graph(graph, graph_id="g")
                handles = [
                    svc.submit(gid, PATTERNS["3CF"], engine="codegen",
                               use_cache=False)
                    for _ in range(64)
                ]
                for handle in handles:
                    with pytest.raises(WorkerCrashError):
                        handle.result(timeout=60)
                assert svc.health().engine_failures == {"codegen": 64}
        finally:
            sys.setswitchinterval(interval)


class TestCrossCheck:
    def test_mismatch_serves_verified_report(self, graph):
        svc, gid = make_service(graph, verify_fraction=1.0)
        svc.arm_faults(FaultPlan(seed=1, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CORRUPT, bit=5),
        )))
        report = svc.count(gid, PATTERNS["3CF"], engine="codegen",
                           use_cache=False)
        expected = XSetAccelerator(engine="codegen").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        assert report.embeddings == expected  # the verified count won
        assert report.notes["crosscheck"]["mismatch"] is True
        assert report.notes["injected"] == {"worker.run:corrupt": 1}
        stats = svc.stats()
        assert stats.crosscheck_mismatches == 1
        assert stats.faults_injected == 1
        # a wrong result is one failure of the primary engine
        assert svc.health().engine_failures == {"codegen": 1}

    def test_corrupted_reports_never_poison_the_cache(self, graph):
        svc, gid = make_service(graph)  # verify off: corruption lands
        svc.arm_faults(FaultPlan(seed=1, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CORRUPT, bit=5),
        )))
        expected = XSetAccelerator(engine="codegen").count(
            graph, PATTERNS["3CF"]
        ).embeddings
        bad = svc.count(gid, PATTERNS["3CF"], engine="codegen")
        assert bad.embeddings == expected ^ (1 << 5)  # visibly corrupt
        svc.arm_faults(None)
        good = svc.count(gid, PATTERNS["3CF"], engine="codegen")
        assert good.embeddings == expected
        assert good.notes == {}

    def test_sampling_is_deterministic_per_job_id(self, graph):
        svc_a, gid_a = make_service(graph, verify_fraction=0.5)
        svc_b, gid_b = make_service(graph, verify_fraction=0.5)
        checked = []
        for svc, gid in ((svc_a, gid_a), (svc_b, gid_b)):
            picks = []
            for _ in range(12):
                report = svc.count(gid, PATTERNS["3CF"],
                                   engine="codegen", use_cache=False)
                picks.append("crosscheck" in report.notes)
            checked.append(picks)
        assert checked[0] == checked[1]
        assert any(checked[0]) and not all(checked[0])


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
        svc.count(gid, PATTERNS["3CF"], engine="codegen")
        svc.shutdown()
        assert svc.stats().dispatcher_stuck is False


class TestUnarmedIsByteIdentical:
    @pytest.mark.parametrize("engine", ["codegen", "event"])
    def test_default_resilience_matches_disabled(self, graph, engine):
        # the default service (failure records, no cross-check) against
        # the layer out of the picture: a direct run of the same engine
        direct = XSetAccelerator(engine=engine).count(graph, PATTERNS["TT"])
        svc, gid = make_service(graph)
        a = svc.count(gid, PATTERNS["TT"], engine=engine, use_cache=False)
        # fully wired, selecting nothing: every armed spec at rate 0
        svc.arm_faults(FaultPlan(seed=0, specs=(
            FaultSpec(site="worker.run", kind=FaultKind.CRASH, rate=0.0),
            FaultSpec(site="worker.run", kind=FaultKind.CORRUPT, rate=0.0),
        )))
        b = svc.count(gid, PATTERNS["TT"], engine=engine, use_cache=False)
        for report in (a, b):
            assert (
                report.embeddings, report.cycles, report.tasks,
                report.set_ops, report.notes,
            ) == (
                direct.embeddings, direct.cycles, direct.tasks,
                direct.set_ops, {},
            )
        stats = svc.stats()
        assert stats.faults_injected == stats.failed == 0
        assert stats.retries == 0
        assert stats.crosscheck_mismatches == 0


# ---------------------------------------------------------------------------
# the chaos suite: all three modes, seeded faults, exact counts
# ---------------------------------------------------------------------------

CHAOS_PATTERNS = ("3CF", "TT", "WEDGE", "DIA")


def chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, specs=(
        # two crash-shaped deaths somewhere in the run (retried)
        FaultSpec(site="worker.run", kind=FaultKind.CRASH,
                  rate=0.5, max_fires=2),
        # slow compute that still finishes correctly
        FaultSpec(site="worker.run", kind=FaultKind.HANG,
                  rate=0.3, seconds=0.02),
        # silent bit-flips in the codegen count (caught by cross-check)
        FaultSpec(site="worker.run", kind=FaultKind.CORRUPT,
                  rate=0.5, bit=4),
    ))


@pytest.mark.parametrize("mode", ["inline", "thread", "process"])
def test_chaos_every_query_correct_no_waiter_hangs(graph, mode):
    expected = {
        name: XSetAccelerator(engine="codegen").count(
            graph, PATTERNS[name]
        ).embeddings
        for name in CHAOS_PATTERNS
    }
    svc = QueryService(
        mode=mode,
        max_workers=2 if mode != "inline" else None,
        verify_fraction=1.0,
    )
    try:
        gid = svc.register_graph(graph, graph_id="g")
        svc.arm_faults(chaos_plan(seed=2024))
        handles = [
            (name, svc.submit(gid, PATTERNS[name], engine="codegen",
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
    """Same seed, same job ids => the same faults are injected."""
    runs = []
    for _ in range(2):
        svc, gid = make_service(graph, verify_fraction=1.0)
        svc.arm_faults(chaos_plan(seed=7))
        for name in CHAOS_PATTERNS:
            svc.count(gid, PATTERNS[name], engine="codegen",
                      use_cache=False)
        runs.append({
            name: value
            for name, value in svc.stats().metrics.items()
            if name.startswith("repro_faults_injected_total")
        })
    assert runs[0]
    assert runs[0] == runs[1]
