"""Activity tracing: per-task execution spans.

When enabled, the simulator records one :class:`TraceEvent` per executed
task; ``Observation.pe_events`` exports them as each PE's activity in a
query's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceEvent", "ActivityTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One task's execution span on one PE."""

    pe: int
    level: int
    start: float
    end: float


@dataclass
class ActivityTrace:
    """Collected execution spans of one simulation run."""

    num_pes: int
    sius_per_pe: int
    events: list[TraceEvent] = field(default_factory=list)

    def record(self, pe: int, level: int, start: float, end: float) -> None:
        self.events.append(TraceEvent(pe=pe, level=level, start=start,
                                      end=end))
