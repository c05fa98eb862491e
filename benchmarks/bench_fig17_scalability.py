"""Figure 17: scalability with the number of PEs and SIUs per PE.

(a) PE scaling 1→16 on several dataset/pattern pairs: near-linear for the
regular workloads, degraded for complex patterns on the skewed YT graph
(cache contention from large difference intermediates).
(b) SIUs-per-PE scaling 1→4: high-degree graphs gain the most — the paper
reports 2.8–3.7x for AS/MI/WV and 1.4–1.6x for the sparse graphs, averaging
≈2.2x at 4 SIUs.
"""

from repro.analysis import format_table, geomean, run_workload
from repro.core import xset_default
from repro.patterns import PATTERNS

from _common import emit, once

PE_COUNTS = (1, 2, 4, 8, 16)
PE_CASES = (("PP", "3CF", 0.25), ("WV", "4CF", 0.15), ("AS", "3CF", 0.15),
            ("YT", "CYC", 0.05))
SIU_COUNTS = (1, 2, 4)
SIU_DATASETS = {"PP": 0.25, "WV": 0.15, "AS": 0.15, "YT": 0.08}


def _run_pe_scaling():
    out = {}
    for ds, pat, scale in PE_CASES:
        for pes in PE_COUNTS:
            cfg = xset_default(num_pes=pes, name=f"xset-{pes}pe")
            out[(ds, pat, pes)] = run_workload(
                ds, pat, config=cfg, scale=scale
            ).seconds
    return out


def _run_siu_scaling():
    out = {}
    for ds, scale in SIU_DATASETS.items():
        for sius in SIU_COUNTS:
            cfg = xset_default(sius_per_pe=sius, name=f"xset-{sius}siu")
            out[(ds, sius)] = run_workload(
                ds, "3CF", config=cfg, scale=scale
            ).seconds
    return out


def test_fig17a_pe_scaling(benchmark):
    out = once(benchmark, _run_pe_scaling)
    rows = []
    for ds, pat, _ in PE_CASES:
        speedups = [out[(ds, pat, 1)] / out[(ds, pat, p)] for p in PE_COUNTS]
        rows.append(
            tuple([f"{ds}/{pat}"] + [f"{s:.2f}x" for s in speedups])
        )
    text = format_table(
        ["workload"] + [f"{p} PE" for p in PE_COUNTS],
        rows,
        title="Figure 17a — speedup vs one PE",
    )
    emit("fig17a_pe_scaling", text)

    for ds, pat, _ in PE_CASES:
        s16 = out[(ds, pat, 1)] / out[(ds, pat, 16)]
        assert s16 > 2.0, (ds, pat)  # PEs help everywhere
    # regular workloads scale better than the skewed difference workload
    pp16 = out[("PP", "3CF", 1)] / out[("PP", "3CF", 16)]
    yt16 = out[("YT", "CYC", 1)] / out[("YT", "CYC", 16)]
    assert pp16 > yt16 * 0.95


def test_fig17b_siu_scaling(benchmark):
    out = once(benchmark, _run_siu_scaling)
    rows = []
    gains = {}
    for ds in SIU_DATASETS:
        speedups = [out[(ds, 1)] / out[(ds, s)] for s in SIU_COUNTS]
        gains[ds] = speedups[-1]
        rows.append(tuple([ds] + [f"{s:.2f}x" for s in speedups]))
    text = format_table(
        ["graph"] + [f"{s} SIU" for s in SIU_COUNTS],
        rows,
        title="Figure 17b — speedup vs one SIU per PE (3CF)",
    )
    avg = geomean(gains.values())
    text += f"\n4-SIU geomean speedup: {avg:.2f}x (paper average 2.2x)"
    emit("fig17b_siu_scaling", text)

    # more SIUs never hurt, and the denser graphs gain more than sparse PP
    for ds in SIU_DATASETS:
        assert out[(ds, 4)] <= out[(ds, 1)] * 1.02
    dense_gain = max(gains["WV"], gains["AS"])
    assert dense_gain >= gains["PP"] * 0.95
    assert 1.2 < avg < 4.0
