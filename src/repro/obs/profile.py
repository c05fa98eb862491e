"""The :class:`ExecutionProfile`: "where did this query's time go".

A profile is assembled at an observation boundary (the pool worker, the
CLI, or :meth:`XSetAccelerator.profile`) from the run's
:class:`~repro.sim.report.SimReport` plus whatever the active
:class:`~repro.obs.context.Observation` collected — per-level task and
intersection-element totals from the SIU models, memory-hierarchy hit
counts, named stage wall times, the span tree and the PE activity
timeline.  It is a plain picklable dataclass, so process-pool workers
attach it to the report they return and the service aggregates profiles
without any extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .summary import summarize
from .tracing import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.report import SimReport
    from .context import Observation

__all__ = ["ExecutionProfile", "build_profile"]


@dataclass
class ExecutionProfile:
    """Everything observed about one query's execution."""

    engine: str = ""
    graph: str = ""
    pattern: str = ""
    wall_seconds: float = 0.0
    #: wall seconds per named stage (host prefix, engine run, ...)
    stages: dict[str, float] = field(default_factory=dict)
    #: executed tasks per search-tree level
    level_tasks: dict[int, int] = field(default_factory=dict)
    #: intersection elements (stream words) consumed per level
    level_elements: dict[int, int] = field(default_factory=dict)
    #: comparator work per level
    level_comparisons: dict[int, int] = field(default_factory=dict)
    #: tasks per level a frontier engine answered word-parallel on bit rows
    level_bit_rows: dict[int, int] = field(default_factory=dict)
    #: memory-hierarchy outcome of the run
    cache: dict[str, float] = field(default_factory=dict)
    #: headline counters copied off the report
    counters: dict[str, float] = field(default_factory=dict)
    #: finished spans recorded during the run (worker-local id space)
    spans: list[Span] = field(default_factory=list)
    #: flattened PE activity events ``(pe, level, start_cycle, end_cycle)``
    pe_events: list[tuple[int, int, float, float]] = field(
        default_factory=list
    )
    num_pes: int = 0
    sius_per_pe: int = 0

    # -- derived views -----------------------------------------------------

    @property
    def levels(self) -> tuple[int, ...]:
        keys = set(self.level_tasks) | set(self.level_elements)
        return tuple(sorted(keys))

    def cache_hit_rate(self, tier: str) -> float:
        """Hit rate of ``"private"`` or ``"shared"`` (0.0 when untouched)."""
        hits = self.cache.get(f"{tier}_hits", 0.0)
        misses = self.cache.get(f"{tier}_misses", 0.0)
        total = hits + misses
        return hits / total if total else 0.0

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Duration summaries (shared percentile math) grouped by name."""
        groups: dict[str, list[float]] = {}
        for sp in self.spans:
            groups.setdefault(sp.name, []).append(sp.duration)
        return {name: summarize(vals) for name, vals in
                sorted(groups.items())}


def build_profile(
    report: "SimReport",
    observation: "Observation",
    engine: str = "",
) -> ExecutionProfile:
    """Assemble the profile of one finished run."""
    levels = observation.levels
    cache = {
        "private_hits": float(report.private_hits),
        "private_misses": float(report.private_misses),
        "shared_hits": float(report.shared_hits),
        "shared_misses": float(report.shared_misses),
        "dram_bytes": float(report.dram_bytes),
    }
    counters = {
        "embeddings": float(report.embeddings),
        "cycles": float(report.cycles),
        "host_cycles": float(report.host_cycles),
        "tasks": float(report.tasks),
        "set_ops": float(report.set_ops),
        "comparisons": float(report.comparisons),
        "words_in": float(report.words_in),
        "words_out": float(report.words_out),
        "siu_busy_cycles": float(report.siu_busy_cycles),
    }
    pe_events = observation.pe_events()
    num_pes = max((a.num_pes for a in observation.activities), default=0)
    sius = max((a.sius_per_pe for a in observation.activities), default=0)
    return ExecutionProfile(
        engine=engine,
        graph=report.graph_name,
        pattern=report.pattern_name,
        wall_seconds=report.wall_seconds,
        stages=dict(observation.stages),
        level_tasks={
            lv: int(acc["tasks"]) for lv, acc in sorted(levels.items())
        },
        level_elements={
            lv: int(acc["elements"]) for lv, acc in sorted(levels.items())
        },
        level_comparisons={
            lv: int(acc["comparisons"]) for lv, acc in sorted(levels.items())
        },
        level_bit_rows={
            lv: int(acc["bit_rows"]) for lv, acc in sorted(levels.items())
            if "bit_rows" in acc
        },
        cache=cache,
        counters=counters,
        spans=observation.tracer.finished(),
        pe_events=pe_events,
        num_pes=num_pes,
        sius_per_pe=sius,
    )
