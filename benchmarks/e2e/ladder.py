"""The layer ladder: the same queries through every layer of the system.

    L0 run_on_soc                     the compiled kernel
    L1 XSetAccelerator.count          + plan building, the public API
    L2 QueryService(mode="inline")    + submit/queue/dispatch/cache key
    L3 QueryService(mode="process")   + IPC, shm attach, pool hand-off
    L4 1-shard inproc cluster         + coordinator, shard service
    L5 1-shard tcp cluster            + frames on a real socket
    L6 4-shard tcp cluster            + fan-out, halo, merge

A layer's self time is the difference between two rungs on identical
queries (stated as such: it is not a span measured inside ``src/``), so
self times along L0→L1→L2→L3 sum to L3 and along L0→L1→L2→L4→L5→L6 to
L6.  ``light`` is the er200 query set, ``heavy`` is 4CF on WV.  Rungs are
visited round-robin so that host drift hits all of them alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from calib import CalibClock
from harness import DEADLINE_HEAVY, Oracle, Recorder, Tally, answers
from svc_base import LIGHT, MAX_WORKERS, codegen_config, heavy_graph, light_graph
from wl_cluster_4shard import start_cluster

#: metric stem of each self time: (name, upper rung, lower rung)
SELF_TIMES = (
    ("core.api_self_mcu", "L1", "L0"),
    ("service.pipeline_self_mcu", "L2", "L1"),
    ("service.ipc_self_mcu", "L3", "L2"),
    ("cluster.coordinator_self_mcu", "L4", "L2"),
    ("cluster.wire_self_mcu", "L5", "L4"),
    ("cluster.fanout_self_mcu", "L6", "L5"),
)
LAYER_OF = {
    "L0": "engine", "L1": "core", "L2": "service", "L3": "service",
    "L3obs": "obs", "L4": "cluster", "L5": "cluster", "L6": "cluster",
}


class Ladder:
    """All rungs, started once; ``close`` stops every service and cluster."""

    def __init__(self) -> None:
        from repro.core import XSetAccelerator
        from repro.patterns import PATTERNS
        from repro.patterns.plan import build_plan
        from repro.service import QueryService
        from repro.sim.host import run_on_soc

        cfg = codegen_config()
        graphs = {"light": light_graph(), "heavy": heavy_graph()}
        self.oracle = Oracle()
        self.oracle.add("light", graphs["light"], LIGHT, brute=True)
        self.oracle.add("heavy", graphs["heavy"], ["4CF"])
        self.queries = {
            "light": [("light", name) for name in LIGHT],
            "heavy": [("heavy", "4CF")],
        }
        plans = {name: build_plan(PATTERNS[name]) for name in (*LIGHT, "4CF")}
        accel = XSetAccelerator(cfg)
        self._closers = []

        def service(**kwargs):
            svc = QueryService(cfg, **kwargs)
            self._closers.append(svc.shutdown)
            gids = {k: svc.register_graph(g, k) for k, g in graphs.items()}

            def submit(g, name):
                return svc.submit(gids[g], PATTERNS[name], use_cache=False)

            if svc.mode == "process":
                # fork both workers and compile every kernel in each,
                # before any cluster thread exists in this process
                handles = [
                    submit(*q)
                    for qs in self.queries.values()
                    for q in qs * MAX_WORKERS
                ]
                for handle in handles:
                    handle.result(timeout=DEADLINE_HEAVY)
            return lambda g, name: submit(g, name).result(
                timeout=DEADLINE_HEAVY
            )

        def cluster(num_shards, transport):
            cl = start_cluster(num_shards, transport)
            self._closers.append(cl.shutdown)
            gids = {
                k: cl.coordinator.register_graph(g, k)
                for k, g in graphs.items()
            }
            return lambda g, name: cl.coordinator.query(
                gids[g], PATTERNS[name], use_cache=False
            )

        self.rungs = {
            "L0": lambda g, name: run_on_soc(graphs[g], plans[name], cfg),
            "L1": lambda g, name: accel.count(graphs[g], PATTERNS[name]),
            "L2": service(mode="inline"),
            "L3": service(mode="process", max_workers=MAX_WORKERS),
            "L3obs": service(
                mode="process", max_workers=MAX_WORKERS, observability=True
            ),
            "L4": cluster(1, "inproc"),
            "L5": cluster(1, "tcp"),
            "L6": cluster(4, "tcp"),
        }

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()

    def measure(self, rec: Recorder, tally: Tally, light_reps, heavy_reps):
        """Round-robin over the rungs; returns {class: {rung: seconds}}
        (median per-query time) and the calibration unit in seconds."""
        clock = CalibClock()
        samples = {
            cls: {rung: [] for rung in self.rungs} for cls in self.queries
        }
        for cls, reps in (("light", light_reps), ("heavy", heavy_reps)):
            for _ in range(reps):
                for rung, run in self.rungs.items():
                    clock.tick()
                    # every visit asks twice and keeps the faster answer:
                    # the first call after another rung ran pays for that
                    # rung's leftovers (pages the allocator gave back,
                    # cold caches), which is not this rung's cost
                    spent = []
                    for _ in range(2):
                        t0 = perf_counter()
                        for g, name in self.queries[cls]:
                            def call():
                                with rec.span(rung, LAYER_OF[rung]):
                                    return run(g, name)

                            tally.attempt(
                                f"{rung}.{cls}", call,
                                answers(self.oracle.expect(g, name)),
                                DEADLINE_HEAVY,
                            )
                        spent.append(perf_counter() - t0)
                    samples[cls][rung].append(
                        min(spent) / len(self.queries[cls])
                    )
        clock.tick()
        medians = {
            cls: {r: statistics.median(v) for r, v in rungs.items()}
            for cls, rungs in samples.items()
        }
        return medians, clock.cu


def metrics(medians: dict, cu: float) -> dict[str, float]:
    """Per-layer metrics of the ladder, in mcu."""

    def mcu(seconds: float) -> float:
        return seconds / cu * 1e3

    out = {}
    for cls, rung in medians.items():
        out[f"engine.kernel_mcu.{cls}"] = mcu(rung["L0"])
        for stem, upper, lower in SELF_TIMES:
            out[f"{stem}.{cls}"] = mcu(rung[upper] - rung[lower])
    out["obs.observability_overhead_ratio"] = (
        medians["light"]["L3obs"] / medians["light"]["L3"]
    )
    out["cluster.throughput_vs_1shard"] = (
        medians["heavy"]["L5"] / medians["heavy"]["L6"]
    )
    return out
