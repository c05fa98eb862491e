"""Compare two result files of ``run.py`` against the declared bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline (the parent commit), B the candidate.  One row per
end-to-end metric × workload: *better*, *within bound*, *worse* or
*unresolved* (the block-to-block spread of either file is wider than the
bound, so the medians cannot settle it — unless every block of one file
beats every block of the other).  Exits non-zero on any *worse* row, on
any rise of ``failed_share``, and when the simulator's statistics digest
changed.  Per-layer deltas of the traced runs are listed beneath, unscored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: set-up time is raw seconds of a few set-ups: between two single runs it
#: counts as worse only beyond +50 % *and* +0.25 s (the driver's own gate,
#: on medians of ten runs, is the bound in BENCHMARK.json)
SETUP_SLACK_S = 0.25
SETUP_BOUND = 0.5
#: a moved cycle count is a modelling change and needs its own claim, in
#: either direction
TWO_SIDED = ("sim_cycles_total",)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def classify(name: str, a: dict, b: dict, decl: dict) -> str:
    bound, better = decl["bound"], decl["better"]
    rel = worse_by(a["value"], b["value"], better)
    if name in TWO_SIDED:
        return "within bound" if abs(rel) <= bound else "worse"
    if name == "setup_s":
        bound = max(bound, SETUP_BOUND)
        if b["value"] - a["value"] <= SETUP_SLACK_S:
            rel = min(rel, 0.0)
    spread = max(
        a.get("iqr", 0.0) / abs(a["value"]),
        b.get("iqr", 0.0) / abs(b["value"]),
    )
    if spread > bound and a.get("blocks") and b.get("blocks"):
        # the medians cannot settle it; only a clean sweep of the blocks can
        sign = 1 if better == "lower" else -1
        blocks_a = [sign * x for x in a["blocks"]]
        blocks_b = [sign * x for x in b["blocks"]]
        if max(blocks_b) < min(blocks_a):
            return "better"
        if not (max(blocks_a) < min(blocks_b) and rel > bound):
            return "unresolved"
    if rel > bound:
        return "worse"
    return "better" if rel < -bound else "within bound"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether B regressed against A."""
    lines, regressed = [], False
    declared = {m["name"]: m for m in spec["end_to_end"]}
    header = (
        f"{'workload':15s} {'metric':22s} {'A median':>14s} {'A iqr':>11s} "
        f"{'B median':>14s} {'B iqr':>11s}  verdict"
    )
    lines.append(header)
    for workload in (w["name"] for w in spec["workloads"]):
        a = doc_a["workloads"].get(workload)
        b = doc_b["workloads"].get(workload)
        if a is None or b is None:
            lines.append(f"{workload:15s} missing from one file")
            continue
        for name, decl in declared.items():
            ma, mb = a["metrics"].get(name), b["metrics"].get(name)
            if ma is None or mb is None:
                lines.append(f"{workload:15s} {name:22s} missing: unresolved")
                regressed = regressed or mb is None
                continue
            verdict = classify(name, ma, mb, decl)
            if a.get("unstable") or b.get("unstable"):
                if verdict in ("better", "within bound") and name not in (
                    "sim_cycles_total", "peak_rss_mb", "setup_s"
                ):
                    verdict = "unresolved"
            regressed = regressed or verdict == "worse"
            lines.append(
                f"{workload:15s} {name:22s} {ma['value']:14.5f} "
                f"{ma.get('iqr', 0.0):11.5f} {mb['value']:14.5f} "
                f"{mb.get('iqr', 0.0):11.5f}  {verdict}"
            )
        fa, fb = a["failed_share"], b["failed_share"]
        verdict = "worse" if fb > fa else "within bound"
        regressed = regressed or fb > fa
        lines.append(
            f"{workload:15s} {'failed_share':22s} {fa:14.5f} {'':11s} "
            f"{fb:14.5f} {'':11s}  {verdict}"
        )

    def digest(doc):
        for result in (
            doc["workloads"].get("sim-event"), doc.get("traced"),
        ):
            if result and "sim_stats_digest" in result:
                yield result["sim_stats_digest"]

    for label, da, db in zip(
        ("sim-event", "traced run"), digest(doc_a), digest(doc_b)
    ):
        same = da == db
        regressed = regressed or not same
        lines.append(
            f"sim.stats_digest ({label}): "
            + ("equal" if same else f"DIFFERENT ({da[:12]}… vs {db[:12]}…)")
        )

    la = (doc_a.get("traced") or {}).get("per_layer", {})
    lb = (doc_b.get("traced") or {}).get("per_layer", {})
    if la and lb:
        lines.append("")
        lines.append("per-layer deltas (traced runs, unscored):")
        for name in sorted(set(la) | set(lb)):
            va, vb = la.get(name), lb.get(name)
            if va is None or vb is None:
                lines.append(f"  {name:40s} only in one file")
                continue
            delta = f"{(vb - va) / abs(va):+8.1%}" if va else "     n/a"
            lines.append(f"  {name:40s} {va:16.5f} {vb:16.5f} {delta}")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(doc_a, doc_b, spec)
    print("\n".join(lines))
    print("\nREGRESSION" if regressed else "\nno regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
