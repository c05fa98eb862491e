"""Figure 13 + §7.3.2: X-SET vs FlexMiner / FINGERS / Shogun.

All four accelerators are simulated on the same workloads; speedups are
normalised to FlexMiner as in the paper's plot.  Shape assertions: X-SET
wins every geomean; the ranking FlexMiner < FINGERS ≤ Shogun < X-SET holds;
skewed graphs (YT) show the largest X-SET advantage; compute density
(performance per area) amplifies the win.
"""

from repro.analysis import format_table, geomean
from repro.baselines import compare_accelerators, compute_density_speedup
from repro.graph import load_dataset
from repro.patterns import PATTERNS, build_plan

from _common import BENCH_SCALE, emit, once

DATASETS = ("PP", "WV", "AS", "MI", "YT")
ACCEL_PATTERNS = ("3CF", "4CF", "DIA", "TT")


def _run():
    results = {}
    for ds in DATASETS:
        graph = load_dataset(ds, scale=BENCH_SCALE[ds])
        for pat in ACCEL_PATTERNS:
            cmp = compare_accelerators(
                graph, PATTERNS[pat], plan=build_plan(PATTERNS[pat])
            )
            results[(ds, pat)] = cmp
    return results


def test_fig13_accelerators(benchmark):
    results = once(benchmark, _run)
    rows = []
    speedups = {"xset": [], "fingers": [], "shogun": []}
    density = []
    for (ds, pat), cmp in results.items():
        over_flex = {
            s: cmp.speedup_over(s) for s in ("fingers", "shogun", "xset")
        }
        for s in speedups:
            speedups[s].append(over_flex[s])
        density.append(compute_density_speedup(cmp, "xset", "fingers"))
        rows.append(
            (
                ds,
                pat,
                "1.00x",
                f"{over_flex['fingers']:.2f}x",
                f"{over_flex['shogun']:.2f}x",
                f"{over_flex['xset']:.2f}x",
            )
        )
    gm = {s: geomean(v) for s, v in speedups.items()}
    gm_density = geomean(density)
    text = format_table(
        ["graph", "pattern", "FlexMiner", "FINGERS", "Shogun", "X-SET"],
        rows,
        title="Figure 13 — speedup normalised to FlexMiner",
    )
    text += (
        f"\ngeomeans over FlexMiner: FINGERS {gm['fingers']:.2f}x, "
        f"Shogun {gm['shogun']:.2f}x, X-SET {gm['xset']:.2f}x"
    )
    xset_vs = {
        "flexminer": gm["xset"],
        "fingers": gm["xset"] / gm["fingers"],
        "shogun": gm["xset"] / gm["shogun"],
    }
    text += (
        f"\nX-SET geomean speedups: vs FlexMiner {xset_vs['flexminer']:.2f}x"
        f" (paper 6.4x), vs FINGERS {xset_vs['fingers']:.2f}x (paper 3.6x),"
        f" vs Shogun {xset_vs['shogun']:.2f}x (paper 2.9x)"
    )
    text += (
        f"\ncompute density vs FINGERS: geomean {gm_density:.1f}x "
        "(paper 13.7x)"
    )
    emit("fig13_accelerators", text)

    # ranking: FlexMiner < FINGERS <= Shogun < X-SET on geomean
    assert 1.0 < gm["fingers"] <= gm["shogun"] * 1.1
    assert gm["xset"] > gm["shogun"]
    # X-SET wins against every baseline on geomean
    assert all(v > 1.0 for v in xset_vs.values())
    # skewed YT shows a larger X-SET-vs-FlexMiner win than sparse PP
    yt = geomean(
        results[("YT", p)].speedup_over("xset") for p in ACCEL_PATTERNS
    )
    pp = geomean(
        results[("PP", p)].speedup_over("xset") for p in ACCEL_PATTERNS
    )
    assert yt > pp
    # compute density amplifies the advantage (PE is ~3x smaller)
    assert gm_density > xset_vs["fingers"] * 2
