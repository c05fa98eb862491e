"""svc-dynamic: edge writes through a dynamic session, then cached reads."""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from calib import CalibClock
from harness import (
    DEADLINE_HEAVY, Tally, induced_wedges, mid_degree_band, time_left,
)
from svc_base import ServiceWorkload, heavy_graph

READS = ("3CF", "DIA", "WEDGE")
SWEEPS = 8


class Workload(ServiceWorkload):
    name = "svc-dynamic"
    why = (
        "one edge write then 8 sweeps of cached reads on WV: writes use "
        "cache, registry and graph store the other way round (re-register, "
        "new segment, fingerprint, invalidation), so a change that speeds "
        "reads at the cost of writes shows in write_p50_cu"
    )

    def __init__(self, seed, rec) -> None:
        super().__init__(seed, rec)
        graph = heavy_graph()
        self.band = mid_degree_band(graph)
        self.oracle.add("wv", graph, ["3CF", "DIA"])
        self.oracle.put(
            "wv", "WEDGE",
            induced_wedges(graph, self.oracle.expect("wv", "3CF")),
        )
        self.rng = random.Random(seed)
        self.served: dict[str, int] = {}

    def setup(self) -> None:
        from repro.patterns import PATTERNS

        self.start()
        self.gid = self.svc.register_graph(heavy_graph(), "wv")
        self.warm([
            (f"WV/{name}", self.gid, name, self.oracle.expect("wv", name),
             DEADLINE_HEAVY)
            for name in READS
        ])
        self.session = self.svc.dynamic_session(self.gid, PATTERNS["3CF"])

    def write(self, tally: Tally) -> None:
        """Toggle one seed-chosen edge: insert if absent, else remove."""
        u, v = self.rng.sample(self.band, 2)

        def call():
            if self.session.has_edge(u, v):
                with self.rec.span("remove_edge", "service"):
                    return self.session.remove_edge(u, v)
            with self.rec.span("insert_edge", "service"):
                return self.session.insert_edge(u, v)

        tally.attempt("write", call, deadline=DEADLINE_HEAVY)

    def round(self, tally: Tally) -> None:
        self.write(tally)
        fresh: dict[str, int] = {}
        for _ in range(SWEEPS):
            for name in READS:
                # 3CF is checked on every read against the incrementally
                # maintained count; the other two must repeat the round's
                # first (uncached) answer, which the recount at the end
                # of the block checks
                expected = (
                    self.session.count if name == "3CF" else fresh.get(name)
                )
                report, cached = self.query(
                    tally, "read", self.gid, name, expected, DEADLINE_HEAVY,
                    use_cache=True,
                )
                if report is None:
                    continue
                tally.lat.setdefault("hit" if cached else "miss", []).append(
                    tally.lat["read"].pop()
                )
                fresh.setdefault(name, report.embeddings)
        self.served = fresh

    def verify_snapshot(self, tally: Tally) -> None:
        """Recount the current snapshot through the independent executor."""
        from repro.patterns import PATTERNS
        from repro.patterns.executor import count_embeddings
        from repro.patterns.plan import build_plan

        snap = self.session.snapshot()
        tri = count_embeddings(snap, build_plan(PATTERNS["3CF"])).embeddings
        truth = {
            "3CF": tri,
            "DIA": count_embeddings(
                snap, build_plan(PATTERNS["DIA"])
            ).embeddings,
            "WEDGE": induced_wedges(snap, tri),
        }
        if self.session.count != tri:
            tally.flag(f"session.count {self.session.count} != recount {tri}")
        for name, count in truth.items():
            if self.served.get(name) != count:
                tally.flag(
                    f"served {name}={self.served.get(name)}, recount {count}"
                )

    def run_block(self, seconds: float) -> dict[str, float]:
        tally, clock = Tally(), CalibClock()
        end = perf_counter() + seconds
        walls = []
        clock.tick()
        while True:
            t0 = perf_counter()
            self.round(tally)
            walls.append(perf_counter() - t0)
            clock.tick()
            if not time_left(end, walls[-1]):
                break
        self.verify_snapshot(tally)
        return self.block_values(
            clock, tally, tally.all("hit", "miss"), tally.all("write"),
            sum(walls),
        )

    def layer_metrics(self) -> dict[str, float]:
        cu = self.cu
        hit, miss = self.tally.all("hit"), self.tally.all("miss")
        return {
            "service.cache_hit_rate": len(hit) / (len(hit) + len(miss)),
            "service.read_hit_p50_mcu": statistics.median(hit) / cu * 1e3,
            "service.read_miss_p50_mcu": statistics.median(miss) / cu * 1e3,
            **self.service_counters(),
        }
