"""sim-event: the event-driven simulator, the paper's own product."""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from time import perf_counter

from calib import CalibClock
from harness import (
    DEADLINE_LIGHT,
    DEADLINE_SIM,
    Oracle,
    Tally,
    Workload as Base,
    answers,
    mid_degree_band,
    time_left,
)

PATTERNS_RUN = ("3CF", "4CF", "DIA", "TT", "CYC")
#: design variants simulated once in the traced run: the order-aware SIU
#: against a merge queue, the barrier-free scheduler against DFS
VARIANT_PATTERNS = ("3CF", "TT")
VARIANTS = {"merge": {"siu_kind": "merge"}, "dfs": {"scheduler": "dfs"}}
#: the paper's reference ratios (Fig. 14 and Fig. 16); the model is not
#: validated against hardware, so they are printed, not scored
PAPER = {"siu.speedup_vs_merge": 1.82, "sched.speedup_vs_dfs": 1.61}
#: incremental edge writes per pass
WRITES_PER_PASS = 10
#: exact statistics of one simulated run
STAT_FIELDS = (
    "embeddings", "cycles", "host_cycles", "tasks", "set_ops", "comparisons",
    "words_in", "words_out", "siu_busy_cycles", "private_hits",
    "private_misses", "shared_hits", "shared_misses", "dram_bytes",
    "peak_active_task_sets",
)


def sim_graph():
    """PP at a scale where one pass of the five patterns takes ~2 s."""
    from repro.graph import load_dataset

    return load_dataset("PP", scale=0.1)


class Workload(Base):
    name = "sim-event"
    why = (
        "event-driven simulation of 3CF/4CF/DIA/TT/CYC on PP: simulated "
        "cycles repeat to the digit, and host speed moves only with sim, "
        "siu, setops, memory and sched"
    )

    def __init__(self, seed, rec) -> None:
        super().__init__(seed, rec)
        self.oracle = Oracle()
        graph = sim_graph()
        self.oracle.add("pp", graph, PATTERNS_RUN)
        self.band = mid_degree_band(graph)
        self.rng = random.Random(seed)
        self.order = self.rng.sample(PATTERNS_RUN, len(PATTERNS_RUN))
        #: per-(variant, pattern) statistics; every pass must repeat them
        self.stats: dict[str, dict] = {}
        self.reports: dict[str, object] = {}
        self.cursor = 0

    def setup(self) -> None:
        from repro.core import XSetAccelerator
        from repro.core.config import xset_default
        from repro.core.incremental import IncrementalGPM
        from repro.patterns import PATTERNS

        self.graph = sim_graph()
        self.accel = XSetAccelerator(xset_default())
        self.gpm = IncrementalGPM(self.graph, PATTERNS["3CF"])
        first = self.accel.count(self.graph, PATTERNS["3CF"], engine="event")
        if not answers(self.oracle.expect("pp", "3CF"))(first):
            raise RuntimeError("warm-up answer for 3CF is wrong")

    def teardown(self) -> None:
        self.accel = None

    def simulate(self, tally: Tally, name: str, variant: str = "base"):
        from repro.core import XSetAccelerator
        from repro.patterns import PATTERNS

        accel = self.accel
        if variant != "base":
            accel = XSetAccelerator(
                self.accel.config.with_overrides(**VARIANTS[variant])
            )
        self.cursor += 1
        qid = self.cursor

        def call():
            with self.rec.span("count", "sim", qid):
                return accel.count(self.graph, PATTERNS[name], engine="event")

        report = tally.attempt(
            f"sim/{variant}", call, answers(self.oracle.expect("pp", name)),
            DEADLINE_SIM,
        )
        if report is None:
            return None
        key = f"{variant}/{name}"
        stats = {f: getattr(report, f) for f in STAT_FIELDS}
        if self.stats.setdefault(key, stats) != stats:
            tally.flag(f"statistics of {key} differ between passes")
        if variant == "base":
            tally.sim_tasks += report.tasks
            self.note_cycles(f"PP/{name}", report)
        self.reports[key] = report
        return report

    def write(self, tally: Tally) -> None:
        """Toggle one seed-chosen mid-degree edge through the incremental
        counter: insert if absent, else remove."""
        u, v = self.rng.sample(self.band, 2)

        def call():
            if self.gpm.has_edge(u, v):
                with self.rec.span("remove_edge", "core"):
                    return self.gpm.remove_edge(u, v)
            with self.rec.span("insert_edge", "core"):
                return self.gpm.insert_edge(u, v)

        tally.attempt("write", call, deadline=DEADLINE_LIGHT)

    def verify_writes(self, tally: Tally) -> None:
        """Recount the written graph through the independent executor."""
        from repro.patterns.executor import count_embeddings

        recount = count_embeddings(
            self.gpm.snapshot(), self.gpm.plan
        ).embeddings
        if self.gpm.count != recount:
            tally.flag(f"gpm.count {self.gpm.count} != recount {recount}")

    def run_block(self, seconds: float) -> dict[str, float]:
        tally, clock = Tally(), CalibClock()
        end = perf_counter() + seconds
        clock.tick()
        while True:
            t0 = perf_counter()
            for name in self.order:
                self.simulate(tally, name)
                clock.tick()
            for _ in range(WRITES_PER_PASS):
                self.write(tally)
            if not time_left(end, perf_counter() - t0):
                break
        self.verify_writes(tally)
        lat = tally.all("sim/base")
        return self.block_values(
            clock, tally, lat, tally.all("write"), sum(lat),
        )

    def extras(self) -> dict:
        """SHA-256 over the sorted per-run statistics of the base runs
        (and of the variants, once the traced run has simulated them)."""
        blob = json.dumps(self.stats, sort_keys=True)
        return {
            "sim_stats_digest": hashlib.sha256(blob.encode()).hexdigest(),
            "paper_reference": PAPER,
        }

    def layer_metrics(self) -> dict[str, float]:
        tally = Tally()
        for variant in VARIANTS:
            for name in VARIANT_PATTERNS:
                self.simulate(tally, name, variant)
        self.tally.absorb(tally)
        base = [self.reports[f"base/{n}"] for n in PATTERNS_RUN]
        cu = self.cu

        def total(field, reports=base):
            return sum(getattr(r, field) for r in reports)

        def variant_cycles(variant):
            return sum(
                self.reports[f"{variant}/{n}"].cycles
                for n in VARIANT_PATTERNS
            )

        cycles = total("cycles")
        sius = base[0].num_sius
        private = total("private_hits") + total("private_misses")
        shared = total("shared_hits") + total("shared_misses")
        host_wall = sum(self.tally.all("sim/base"))
        runs = len(self.tally.all("sim/base")) / len(PATTERNS_RUN)
        return {
            "sim.tasks_total": total("tasks"),
            "sim.set_ops_total": total("set_ops"),
            "sim.comparisons_total": total("comparisons"),
            "sim.host_cycles_total": total("host_cycles"),
            "sim.host_mcu_per_task": (
                host_wall / runs / cu * 1e3 / total("tasks")
            ),
            "siu.utilization": total("siu_busy_cycles") / (cycles * sius),
            "siu.busy_cycles_total": total("siu_busy_cycles"),
            "siu.speedup_vs_merge": (
                variant_cycles("merge") / variant_cycles("base")
            ),
            "memory.private_hit_rate": total("private_hits") / private,
            "memory.shared_hit_rate": total("shared_hits") / shared,
            "memory.dram_bytes_total": total("dram_bytes"),
            "sched.peak_active_task_sets": max(
                r.peak_active_task_sets for r in base
            ),
            "sched.speedup_vs_dfs": (
                variant_cycles("dfs") / variant_cycles("base")
            ),
        }
