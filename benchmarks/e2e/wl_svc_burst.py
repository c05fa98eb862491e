"""svc-burst: heavy and light jobs submitted together, one poller."""

from __future__ import annotations

import sys
import time
from time import perf_counter

from calib import CalibClock
from harness import (
    DEADLINE_HEAVY, DEADLINE_LIGHT, Tally, answers, time_left,
)
from svc_base import ServiceWorkload, heavy_graph

HEAVY_PER_BURST = 6
LIGHT_PER_BURST = 60
#: the poller sweeps ``handle.done()`` at this period
POLL_SECONDS = 0.001
#: calibration calls between two bursts
CALIB_PER_BURST = 6


class Workload(ServiceWorkload):
    name = "svc-burst"
    why = (
        "bursts of 6 heavy (4CF on WV, ~160 ms kernel) + 60 light jobs at "
        "one priority, cache off: kernel time is >90% of makespan so "
        "throughput follows the engine, light latency follows queue policy"
    )

    def __init__(self, seed, rec) -> None:
        super().__init__(seed, rec)
        self.oracle.add("heavy", heavy_graph(), ["4CF"])

    def setup(self) -> None:
        self.start()
        self.heavy_gid = self.svc.register_graph(heavy_graph(), "heavy")
        self.warm(
            self.light_queries()
            + [(
                "WV/4CF", self.heavy_gid, "4CF",
                self.oracle.expect("heavy", "4CF"), DEADLINE_HEAVY,
            )]
        )

    def burst(self, tally: Tally) -> float:
        """Submit one burst, poll it to completion; returns its makespan.

        Every job is timed from the start of the burst, which is what a
        client that sent the burst waits.
        """
        from repro.errors import XSetError
        from repro.patterns import PATTERNS

        jobs = [("heavy", self.heavy_gid, "4CF",
                 self.oracle.expect("heavy", "4CF"), DEADLINE_HEAVY)
                ] * HEAVY_PER_BURST
        for _ in range(LIGHT_PER_BURST):
            name = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            jobs.append((
                "light", self.light_gid, name,
                self.oracle.expect(f"light/{self.light_now}", name),
                DEADLINE_LIGHT + DEADLINE_HEAVY,
            ))
        t0 = perf_counter()
        pending = {}
        with self.rec.span("submit_burst", "service"):
            for i, (kind, gid, name, _, _) in enumerate(jobs):
                try:
                    pending[i] = self.svc.submit(
                        gid, PATTERNS[name], use_cache=False
                    )
                except XSetError as exc:
                    tally.settle(kind, 0.0, exc, ok=lambda _: False)
        done_at = {}
        handles = dict(pending)
        with self.rec.span("poll_burst", "service"):
            while pending and perf_counter() - t0 < DEADLINE_HEAVY:
                for i in [i for i, h in pending.items() if h.done()]:
                    done_at[i] = perf_counter() - t0
                    del pending[i]
                time.sleep(POLL_SECONDS)
        for i, handle in handles.items():
            kind, _, _, expected, deadline = jobs[i]
            report = None
            if i in done_at:
                try:
                    report = handle.result(timeout=0)
                except XSetError as exc:
                    print(f"benchmark: {kind} failed: {exc!r}", file=sys.stderr)
            # the sample is the time from burst start, not of result()
            if tally.settle(
                kind, done_at.get(i, DEADLINE_HEAVY), report,
                lambda r: r is not None and answers(expected)(r), deadline,
            ) is not None:
                tally.sim_tasks += report.tasks
        return max(done_at.values(), default=DEADLINE_HEAVY)

    def run_block(self, seconds: float) -> dict[str, float]:
        tally, clock = Tally(), CalibClock()
        end = perf_counter() + seconds
        makespans = []
        while True:
            # the pool is idle between bursts: that is when the reference
            # loop is timed (the call right after a burst would share the
            # cores with the workers' clean-up)
            self.light_write(tally)
            for _ in range(CALIB_PER_BURST):
                clock.tick()
            makespans.append(self.burst(tally))
            if not time_left(end, makespans[-1]):
                break
        # every job of the burst is an answer, not only the light class
        return self.block_values(
            clock, tally, tally.all("light"), tally.all("write"),
            sum(makespans), answered=len(tally.all("light", "heavy")),
        )

    def layer_metrics(self) -> dict[str, float]:
        stats = self.svc.stats()
        cu = self.cu
        return {
            "service.queue_wait_p50_mcu": stats.queue_wait["p50"] / cu * 1e3,
            "service.queue_wait_p99_mcu": stats.queue_wait["p99"] / cu * 1e3,
            "sched.predictor_within_2x": stats.predictor["within_2x"],
            **self.service_counters(),
        }
