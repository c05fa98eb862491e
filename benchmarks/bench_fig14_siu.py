"""Figure 14: single-SIU end-to-end throughput — order-aware vs SMA vs merge.

Evaluates one PE with one SIU per design, all with BitmapCSR width 8 and
segment length 8, exactly as §7.4.1 configures the study.  Shape: the
order-aware SIU wins on average (paper: 1.64x over SMA, 1.9x over the merge
queue); merge queues do comparatively better on low-degree graphs (PP) and
the SMA comparatively better on throughput-bound dense workloads.
"""

from repro.analysis import format_table, geomean, run_workload
from repro.core import xset_default

from _common import emit, once

DATASETS_SCALE = {"PP": 0.2, "WV": 0.12, "AS": 0.12, "YT": 0.06}
SIU_PATTERNS = ("3CF", "4CF", "DIA", "CYC")


def _config(kind: str):
    return xset_default(
        num_pes=1,
        sius_per_pe=1,
        siu_kind=kind,
        segment_width=8 if kind != "merge" else 1,
        bitmap_width=8,
        name=f"single-{kind}",
    )


def _run():
    out = {}
    for ds, scale in DATASETS_SCALE.items():
        for pat in SIU_PATTERNS:
            cycles = {}
            for kind in ("order-aware", "sma", "merge"):
                report = run_workload(
                    ds, pat, config=_config(kind), scale=scale
                )
                cycles[kind] = report.cycles
            out[(ds, pat)] = cycles
    return out


def test_fig14_order_aware_siu(benchmark):
    out = once(benchmark, _run)
    rows = []
    sma_ratio, merge_ratio = [], []
    for (ds, pat), cycles in out.items():
        r_sma = cycles["sma"] / cycles["order-aware"]
        r_merge = cycles["merge"] / cycles["order-aware"]
        sma_ratio.append(r_sma)
        merge_ratio.append(r_merge)
        rows.append((ds, pat, "1.00", f"{1/r_sma:.2f}", f"{1/r_merge:.2f}"))
    gm_sma = geomean(sma_ratio)
    gm_merge = geomean(merge_ratio)
    text = format_table(
        ["graph", "pattern", "order-aware", "SMA", "merge queue"],
        rows,
        title="Figure 14 — single-SIU performance normalised to order-aware"
              " (1 PE, 1 SIU, BitmapCSR b=8)",
    )
    text += (
        f"\norder-aware speedup geomeans: {gm_sma:.2f}x over SMA "
        f"(paper 1.64x), {gm_merge:.2f}x over merge queue (paper 1.9x)"
    )
    emit("fig14_siu", text)

    # the order-aware SIU wins on average against both
    assert gm_sma > 1.0
    assert gm_merge > 1.0
    # merge queues are least bad on the sparsest graph (latency-bound sets):
    # its worst ratios should come from the denser graphs
    pp_merge = geomean(
        out[("PP", p)]["merge"] / out[("PP", p)]["order-aware"]
        for p in SIU_PATTERNS
    )
    wv_merge = geomean(
        out[("WV", p)]["merge"] / out[("WV", p)]["order-aware"]
        for p in SIU_PATTERNS
    )
    assert pp_merge < wv_merge
