"""Tests for the activity-trace facility."""

from collections import Counter

import pytest

from repro.core import xset_default
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.sim import AcceleratorSim, TraceEvent


@pytest.fixture(scope="module")
def traced_sim():
    g = erdos_renyi(80, 8.0, seed=4)
    sim = AcceleratorSim(
        g, build_plan(PATTERNS["3CF"]), xset_default(num_pes=4),
        collect_trace=True,
    )
    report = sim.run()
    return sim, report


class TestCollection:
    def test_one_event_per_task(self, traced_sim):
        sim, report = traced_sim
        assert len(sim.trace.events) == report.tasks

    def test_events_within_makespan(self, traced_sim):
        sim, report = traced_sim
        assert max(e.end for e in sim.trace.events) <= report.cycles + 1e-6
        for e in sim.trace.events:
            assert 0 <= e.start < e.end

    def test_disabled_by_default(self):
        g = erdos_renyi(20, 4.0, seed=1)
        sim = AcceleratorSim(
            g, build_plan(PATTERNS["3CF"]), xset_default(num_pes=2)
        )
        sim.run()
        assert sim.trace is None

    def test_level_histogram_matches_report(self, traced_sim):
        sim, report = traced_sim
        hist = Counter(e.level for e in sim.trace.events)
        assert sum(hist.values()) == report.tasks
        assert set(hist) == {1, 2}  # triangle plan depth


class TestAnalyses:
    def test_busy_cycles_by_level(self, traced_sim):
        sim, report = traced_sim
        busy = Counter()
        for e in sim.trace.events:
            busy[e.level] += e.duration
        assert set(busy) == {1, 2} and min(busy.values()) > 0
        # per-event durations include pipeline tails, so the trace total is
        # at least the occupancy-based busy counter
        assert sum(busy.values()) >= report.siu_busy_cycles * 0.5

    def test_event_duration(self):
        e = TraceEvent(pe=0, level=1, start=5.0, end=9.0)
        assert e.duration == 4.0
