"""Consolidated experiment reporting.

After ``pytest benchmarks/ --benchmark-only`` has populated
``benchmarks/results/``, this module assembles the per-experiment text
blocks into one report (the reproduction's analogue of the paper artifact's
result-gathering notebooks) and exposes it through ``python -m repro
results``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import ExecutionProfile

__all__ = [
    "RESULTS_ORDER",
    "collect_results",
    "experiment_summary",
    "render_profile",
]

#: canonical presentation order of the result files
RESULTS_ORDER = (
    "table1_theory",
    "table2_config",
    "table3_datasets",
    "table4_area",
    "table5_simtime",
    "fig12_software",
    "fig13_accelerators",
    "fig14_siu",
    "fig15_area_power",
    "fig16_ablation",
    "fig17a_pe_scaling",
    "fig17b_siu_scaling",
    "fig18a_private_cache",
    "fig18b_shared_cache",
    "fig19_bitmap",
    "ext_taskset_capacity",
    "ext_root_partitioning",
    "ext_energy",
)


def render_profile(profile: "ExecutionProfile") -> str:
    """Human-readable rendering of one :class:`ExecutionProfile`.

    Used by ``python -m repro stats``: a header line, the per-level
    task/element/comparison table, stage wall times, memory-hierarchy hit
    rates and per-span-name duration summaries (shared percentile math).
    """
    from .experiments import format_table

    lines = [
        (
            f"{profile.pattern or '?'} on {profile.graph or '?'} "
            f"[engine={profile.engine or '?'}]  "
            f"wall {profile.wall_seconds * 1e3:.2f}ms"
        ),
    ]
    if profile.levels:
        rows = [
            (
                level,
                profile.level_tasks.get(level, 0),
                profile.level_elements.get(level, 0),
                profile.level_comparisons.get(level, 0),
                profile.level_bit_rows.get(level, 0),
            )
            for level in profile.levels
        ]
        lines.append("")
        lines.append(
            format_table(
                ("level", "tasks", "elements", "comparisons", "bit rows"),
                rows,
                title="per-level work",
            )
        )
    if profile.stages:
        lines.append("")
        lines.append("stages:")
        for name, seconds in sorted(profile.stages.items()):
            lines.append(f"  {name:<16} {seconds * 1e3:.3f}ms")
    if profile.cache:
        lines.append("")
        lines.append(
            "cache: private {:.1%} hit, shared {:.1%} hit".format(
                profile.cache_hit_rate("private"),
                profile.cache_hit_rate("shared"),
            )
        )
    span_stats = profile.span_summary()
    if span_stats:
        rows = [
            (
                name,
                f"{stats['count']:.0f}",
                f"{stats['p50'] * 1e3:.3f}",
                f"{stats['p99'] * 1e3:.3f}",
            )
            for name, stats in span_stats.items()
        ]
        lines.append("")
        lines.append(
            format_table(
                ("span", "count", "p50 ms", "p99 ms"),
                rows,
                title="span durations",
            )
        )
    return "\n".join(lines)


def _candidate_dirs(results_dir: Path | None) -> list[Path]:
    if results_dir is not None:
        return [Path(results_dir)]
    here = Path(__file__).resolve()
    return [
        parent / "benchmarks" / "results"
        for parent in list(here.parents)[:6]
    ] + [Path.cwd() / "benchmarks" / "results"]


def collect_results(results_dir: Path | None = None) -> dict[str, str]:
    """Load every available result block, keyed by experiment name."""
    for candidate in _candidate_dirs(results_dir):
        if candidate.is_dir():
            return {
                path.stem: path.read_text().rstrip()
                for path in sorted(candidate.glob("*.txt"))
            }
    return {}


def experiment_summary(results_dir: Path | None = None) -> str:
    """One consolidated report over all regenerated tables and figures."""
    blocks = collect_results(results_dir)
    if not blocks:
        return (
            "no results found — run `pytest benchmarks/ --benchmark-only` "
            "first"
        )
    ordered = [name for name in RESULTS_ORDER if name in blocks]
    ordered += [name for name in sorted(blocks) if name not in RESULTS_ORDER]
    sections = []
    for name in ordered:
        bar = "=" * (len(name) + 8)
        sections.append(f"{bar}\n=== {name} ===\n{bar}\n{blocks[name]}")
    missing = [name for name in RESULTS_ORDER if name not in blocks]
    if missing:
        sections.append(
            "(not yet regenerated: " + ", ".join(missing) + ")"
        )
    return "\n\n".join(sections)
