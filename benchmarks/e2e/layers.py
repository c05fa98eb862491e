"""Leaf probes: each layer's public function, called from the benchmark on
the workloads' own inputs and timed in mcu.

Which end-to-end number each of these is expected to move is tabulated in
README.md.  A probe's value is the median of its repetitions divided by
the calibration unit measured between the probes.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from calib import CalibClock
from harness import Oracle, Recorder, Tally, answers
from svc_base import LIGHT, codegen_config, heavy_graph, light_graph


class Probes:
    """Runs probes, keeps their median seconds, ticks the calibration."""

    def __init__(self, rec: Recorder, scale: float) -> None:
        self.rec = rec
        self.scale = scale
        self.clock = CalibClock()
        self.seconds: dict[str, float] = {}

    def time(self, name, fn, reps, before=None, after=None, inner=1):
        """Median wall of ``fn`` over ``reps`` scaled repetitions.

        ``before`` runs untimed ahead of each call; ``after`` receives
        each call's result, untimed (clean-up).  A sub-microsecond ``fn``
        is called ``inner`` times per timing, below which the clock's
        own resolution would be the result.  Returns the last result.
        """
        layer = name.split(".", 1)[0]
        samples = []
        self.clock.tick()
        for _ in range(max(int(reps * self.scale), 2)):
            if before is not None:
                before()
            with self.rec.span(name, layer):
                t0 = perf_counter()
                for _ in range(inner):
                    result = fn()
                samples.append((perf_counter() - t0) / inner)
            if after is not None:
                after(result)
        self.clock.tick()
        self.seconds[name] = statistics.median(samples)
        return result

    def mcu(self) -> dict[str, float]:
        cu = self.clock.cu
        return {name: s / cu * 1e3 for name, s in self.seconds.items()}


def run(rec: Recorder, tally: Tally, scale: float) -> dict[str, float]:
    """All leaf probes; ``scale`` multiplies the repetition counts."""
    from repro.cluster import ShardWorker, get_transport, make_shards
    from repro.cluster.comm.base import (
        FRAME_HEADER, decode_body, encode_frame,
    )
    from repro.cluster.merge import merge_replies
    from repro.engine import get_engine
    from repro.graph import load_dataset
    from repro.graph.store import attach_graph, share_graph
    from repro.patterns import PATTERNS
    from repro.patterns.codegen import clear_kernel_cache, compile_plan_kernel
    from repro.patterns.plan import build_plan
    from repro.sched.adaptive import CostPredictor
    from repro.sched.adaptive.features import query_features
    from repro.service.cache import CacheKey, ResultCache, pattern_cache_key
    from repro.service.job import Job, JobHandle
    from repro.service.registry import GraphRegistry
    from repro.service.scheduler import JobQueue

    p = Probes(rec, scale)
    cfg = codegen_config()
    light, heavy = light_graph(), heavy_graph()
    oracle = Oracle()
    oracle.add("light", light, LIGHT, brute=True)
    oracle.add("heavy", heavy, ["4CF"])
    plan4 = build_plan(PATTERNS["4CF"])
    extra: dict[str, float] = {}

    # -- graph ---------------------------------------------------------
    p.time(
        "graph.load_dataset_mcu", lambda: load_dataset("WV", scale=0.18), 3,
        before=load_dataset.cache_clear,
    )
    p.time(
        "graph.share_graph_mcu", lambda: share_graph(heavy), 5,
        after=lambda segment: segment.unlink(),
    )
    segment = share_graph(heavy)
    try:
        p.time(
            "graph.attach_graph_mcu", lambda: attach_graph(segment.ref), 10,
            after=lambda attached: attached.close(),
        )
    finally:
        segment.unlink()
    p.time("graph.fingerprint_mcu", heavy.fingerprint, 10)

    # -- patterns ------------------------------------------------------
    p.time("patterns.build_plan_mcu", lambda: build_plan(PATTERNS["4CF"]), 20)
    p.time(
        "patterns.compile_kernel_cold_mcu",
        lambda: compile_plan_kernel(plan4), 5, before=clear_kernel_cache,
    )
    p.time(
        "patterns.compile_kernel_warm_mcu",
        lambda: compile_plan_kernel(plan4), 20, inner=50,
    )

    # -- engine --------------------------------------------------------
    def engine_run(engine, graph, key, names):
        def run_all():
            for name in names:
                tally.attempt(
                    f"engine.{engine}",
                    lambda: get_engine(engine).run(
                        graph, build_plan(PATTERNS[name]), cfg
                    ),
                    answers(oracle.expect(key, name)),
                )
        return run_all

    for metric, engine, graph, key, names, reps in (
        ("engine.batched_mcu.light", "batched", light, "light", LIGHT, 5),
        ("engine.batched_mcu.heavy", "batched", heavy, "heavy", ["4CF"], 2),
        ("engine.event_mcu.light", "event", light, "light", LIGHT, 2),
    ):
        p.time(metric, engine_run(engine, graph, key, names), reps)
        p.seconds[metric] /= len(names)  # per query, like the ladder

    # -- sched ---------------------------------------------------------
    fingerprint = heavy.fingerprint()
    pkey = pattern_cache_key(PATTERNS["4CF"], None)
    features = p.time(
        "sched.query_features_mcu",
        lambda: query_features(heavy, fingerprint, pkey), 20, inner=50,
    )
    predictor = CostPredictor()
    p.time(
        "sched.predict_mcu", lambda: predictor.predict(features, "codegen"),
        20, inner=50,
    )

    # -- service -------------------------------------------------------
    report = get_engine("codegen").run(heavy, plan4, cfg)
    cache = ResultCache(512)
    key = CacheKey(fingerprint, pkey, cfg.cache_key())
    p.time(
        "service.cache_put_mcu", lambda: cache.put(key, report), 20, inner=50
    )
    p.time("service.cache_get_mcu", lambda: cache.get(key), 20, inner=50)
    queue = JobQueue(256, policy="cost", age_limit=2.0)
    job = Job(
        handle=JobHandle(1, "wv", "4CF", "codegen", lambda handle: False),
        graph_id="wv", fingerprint=fingerprint, plan=plan4, config=cfg,
        cache_key=key, predicted_seconds=0.1,
    )

    def push_pop():
        queue.push(job)
        return queue.pop(perf_counter())

    p.time("service.queue_push_pop_mcu", push_pop, 20, inner=50)
    registry = GraphRegistry()
    registry.register(heavy, "wv")
    try:
        p.time(
            "service.registry_update_mcu",
            lambda: registry.update("wv", heavy), 5,
        )
    finally:
        registry.close()

    # -- cluster -------------------------------------------------------
    specs = p.time(
        "cluster.make_shards_mcu",
        lambda: make_shards(heavy, 4, cfg.cluster_halo_hops), 3,
    )
    extra["cluster.halo_edge_ratio"] = (
        sum(spec.graph.num_edges for spec in specs) / heavy.num_edges
    )
    transport = get_transport("inproc")
    worker = ShardWorker("probe", transport, cfg, mode="inline")
    try:
        conn = transport.connect(worker.address)
        spec = specs[0]
        conn.request({
            "op": "register", "graph_id": "wv", "graph": spec.graph,
            "local_lo": spec.local_lo, "local_hi": spec.local_hi,
        })
        reply = conn.request({
            "op": "query", "graph_id": "wv", "pattern": PATTERNS["4CF"],
            "use_cache": False, "timeout": 30.0,
        })
    finally:
        worker.close()
    frame = p.time("cluster.encode_frame_mcu", lambda: encode_frame(reply), 100)
    extra["cluster.reply_frame_bytes"] = len(frame)
    body = frame[FRAME_HEADER.size:]
    p.time("cluster.decode_body_mcu", lambda: decode_body(body), 100)
    replies = [((s.lo, s.hi), reply["report"]) for s in specs]
    p.time("cluster.merge_replies_mcu", lambda: merge_replies(replies), 100)

    return {**p.mcu(), **extra}
