"""cluster-4shard: closed loop over four tcp shards."""

from __future__ import annotations

from time import perf_counter

from calib import CalibClock
from harness import (
    DEADLINE_HEAVY,
    Oracle,
    Tally,
    Workload as Base,
    absent_edge,
    answers,
    pctl,
    seeded_order,
    time_left,
    with_edge,
)
from svc_base import codegen_config, heavy_graph

CYCLE = ("3CF", "DIA", "4CF", "3CF", "DIA")
LIGHT = ("3CF", "DIA")
SHARDS = 4
#: one write (re-shard and re-register the graph) per this many queries
WRITE_EVERY = 10


def start_cluster(num_shards: int, transport: str):
    """Thread-mode shards: four extra worker processes on two cores would
    measure the scheduler, and inproc + process + codegen deadlocks."""
    from repro.cluster import LocalCluster

    return LocalCluster(
        num_shards=num_shards, config=codegen_config(), transport=transport,
        mode="thread", max_workers=1, request_timeout=DEADLINE_HEAVY,
    )


class Workload(Base):
    name = "cluster-4shard"
    why = (
        "closed loop over 4 tcp shards on WV: the only workload crossing "
        "frame encode, wire, shard service and merge; light queries carry "
        "the per-query cluster overhead, the 4CF query carries scaling"
    )

    def __init__(self, seed, rec) -> None:
        super().__init__(seed, rec)
        self.oracle = Oracle()
        base = heavy_graph()
        self.edge = absent_edge(seed, base)
        names = sorted(set(CYCLE))
        self.oracle.add("a", base, names)
        self.oracle.add("b", with_edge(base, *self.edge, base.name), names)
        self.order = seeded_order(seed, CYCLE)
        self.cursor = 0
        self.cluster = None

    def setup(self) -> None:
        from repro.patterns import PATTERNS

        a = heavy_graph()
        self.graphs = {"a": a, "b": with_edge(a, *self.edge, a.name)}
        self.now = "a"
        self.cluster = start_cluster(SHARDS, "tcp")
        self.coord = self.cluster.coordinator
        self.gid = self.coord.register_graph(a, "wv")
        for name in sorted(set(CYCLE)):
            report = self.coord.query(
                self.gid, PATTERNS[name], use_cache=False
            )
            if not answers(self.oracle.expect("a", name))(report):
                raise RuntimeError(f"warm-up answer for {name} is wrong")
            self.note_cycles(f"WV/{name}", report)

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None

    def query(self, tally: Tally) -> None:
        from repro.patterns import PATTERNS

        name = self.order[self.cursor % len(self.order)]
        self.cursor += 1
        qid = self.cursor

        def call():
            with self.rec.span("Coordinator.query", "cluster", qid):
                return self.coord.query(
                    self.gid, PATTERNS[name], use_cache=False
                )

        report = tally.attempt(
            "light" if name in LIGHT else "heavy", call,
            answers(self.oracle.expect(self.now, name)), DEADLINE_HEAVY,
        )
        if report is not None:
            tally.sim_tasks += report.tasks

    def write(self, tally: Tally) -> None:
        """Publish the other snapshot: re-shard, ship to every shard."""
        nxt = "b" if self.now == "a" else "a"

        def call():
            with self.rec.span("reregister_graph", "cluster"):
                self.coord.unregister_graph(self.gid)
                return self.coord.register_graph(self.graphs[nxt], self.gid)

        if tally.attempt("write", call, deadline=DEADLINE_HEAVY) is not None:
            self.now = nxt

    def run_block(self, seconds: float) -> dict[str, float]:
        tally, clock = Tally(), CalibClock()
        end = perf_counter() + seconds
        clock.tick()
        while True:
            t0 = perf_counter()
            self.write(tally)
            for _ in range(WRITE_EVERY):
                self.query(tally)
                clock.tick()
            if not time_left(end, perf_counter() - t0):
                break
        reads = tally.all("light", "heavy")
        return self.block_values(
            clock, tally, tally.all("light"), tally.all("write"),
            sum(reads) + sum(tally.all("write")), answered=len(reads),
        )

    def layer_metrics(self) -> dict[str, float]:
        cu = self.cu
        flat = self.coord.metrics.snapshot()
        return {
            "cluster.query_p99_cu": pctl(self.tally.all("light"), 0.99) / cu,
            "cluster.failovers": sum(
                v for k, v in flat.items()
                if k.startswith("repro_cluster_replica_failovers_total")
            ),
            "cluster.partial_results": sum(
                v for k, v in flat.items()
                if k.startswith("repro_cluster_partial_results_total")
            ),
        }
