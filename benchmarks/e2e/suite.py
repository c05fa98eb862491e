"""The traced run: every per-layer metric of the benchmark, in one process.

It runs each workload briefly with span recording on (the workload named
on the command line gets three times the others' share, in blocks that
alternate recording off and on), then the layer ladder, then the leaf probes, and writes the spans
to ``out/trace.json``.  End-to-end metrics never come from this run; the
gap between its traced and untraced blocks is ``bench.trace_overhead_ratio``.
"""

from __future__ import annotations

import harness
import ladder
import layers
from run import DEFAULT_SECONDS, WORKLOADS

#: share of ``--seconds`` each workload measures for (the favoured one
#: gets FAVOUR times that); ladder and probes scale their repetitions
SHARE = 1 / 15
FAVOUR = 3
#: per-layer counters summed over the workloads that report them
COUNTERS = (
    "service.retries", "service.timed_out", "service.rerouted",
    "service.crosscheck_mismatches",
)
LADDER_LIGHT_REPS = 12
LADDER_HEAVY_REPS = 3


def run(favoured, seed, seconds, rec, *, import_s, progress, smoke) -> dict:
    scale = seconds / DEFAULT_SECONDS
    per_layer: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    total = harness.Tally()
    result = {"workload": favoured, "seed": seed, "workloads": {}}
    for name, module in WORKLOADS.items():
        share = SHARE * (FAVOUR if name == favoured else 1)
        wl_result = harness.measure(
            __import__(module).Workload, seed, seconds * share, rec,
            import_s=import_s, setups=1,
            blocks=2 * FAVOUR if name == favoured else 1,
            trace_alternate=True,
        )
        layer = wl_result.pop("layer")
        for key, value in layer.items():
            if key in COUNTERS:
                per_layer[key] += value
            else:
                per_layer[key] = value
        if name == favoured:
            per_layer["bench.trace_overhead_ratio"] = wl_result[
                "trace_overhead_ratio"
            ]
        for key in ("sim_stats_digest", "paper_reference"):
            if key in wl_result:
                result[key] = wl_result[key]
        total.attempted += wl_result["attempted"]
        total.failed += wl_result["failed"]
        result["workloads"][name] = {
            k: wl_result[k]
            for k in ("attempted", "failed", "unstable", "calib_ms")
        }
        progress(total.attempted, total.failed)

    rec.on = True
    rungs = ladder.Ladder()
    try:
        medians, cu = rungs.measure(
            rec, total,
            max(int(LADDER_LIGHT_REPS * scale), 1 if smoke else 2),
            max(int(LADDER_HEAVY_REPS * scale), 1 if smoke else 2),
        )
    finally:
        rungs.close()
    per_layer.update(ladder.metrics(medians, cu))
    result["ladder_ms"] = {
        cls: {rung: s * 1e3 for rung, s in by_rung.items()}
        for cls, by_rung in medians.items()
    }
    progress(total.attempted, total.failed)
    per_layer.update(layers.run(rec, total, scale))
    rec.on = False

    result.update({
        "attempted": total.attempted,
        "failed": total.failed,
        "failed_share": total.failed / max(total.attempted, 1),
        "correct": total.failed == 0 and total.attempted > 0,
        "unstable": any(
            w["unstable"] for w in result["workloads"].values()
        ),
        "per_layer": per_layer,
        "spans": len(rec.spans),
    })
    return result
