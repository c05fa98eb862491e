"""Service health assessment.

The service classifies itself into one of three states from two cheap
signals — queue occupancy and breaker states:

``HEALTHY``
    Queue below the degraded watermark, every breaker closed.
``DEGRADED``
    Queue above the degraded watermark *or* at least one engine breaker
    open/half-open.
``OVERLOADED``
    Queue above the overload watermark.

The state is a report, not a policy: the service accepts work in every
state, and a full queue is its one backpressure signal
(:class:`~repro.errors.QueueFullError`).  The cluster coordinator reads
the state of each shard.  It is recomputed on demand (``stats()``,
``health()``) from a snapshot of the signals; there is no background
thread to race.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .breaker import BreakerSnapshot, BreakerState

__all__ = ["HealthState", "HealthReport", "assess"]

#: queue occupancy (fraction of the limit) at or above which = DEGRADED
QUEUE_DEGRADED_FRACTION = 0.5
#: queue occupancy at or above which = OVERLOADED
QUEUE_OVERLOADED_FRACTION = 0.9


class HealthState(enum.Enum):
    """Service-level condition (values are the exported gauge levels)."""

    HEALTHY = 0
    DEGRADED = 1
    OVERLOADED = 2


def assess(
    queue_depth: int,
    queue_limit: int,
    breaker_states: Iterable["BreakerState"],
) -> HealthState:
    """Classify the service from one snapshot of its signals."""
    fraction = queue_depth / queue_limit if queue_limit > 0 else 0.0
    if fraction >= QUEUE_OVERLOADED_FRACTION:
        return HealthState.OVERLOADED
    if fraction >= QUEUE_DEGRADED_FRACTION:
        return HealthState.DEGRADED
    if any(state.value != 0 for state in breaker_states):
        return HealthState.DEGRADED
    return HealthState.HEALTHY


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time health snapshot returned by ``QueryService.health()``."""

    state: HealthState
    queue_depth: int
    queue_limit: int
    in_flight: int
    breakers: Mapping[str, "BreakerSnapshot"] = field(default_factory=dict)
    crosscheck_mismatches: int = 0
    faults_injected: int = 0
    dispatcher_stuck: bool = False

    @property
    def queue_fraction(self) -> float:
        return (
            self.queue_depth / self.queue_limit if self.queue_limit else 0.0
        )

    def summary(self) -> str:
        """Human-readable rendering (used by ``python -m repro health``)."""
        lines = [
            f"health: {self.state.name.lower()}",
            (
                f"queue {self.queue_depth}/{self.queue_limit} "
                f"({self.queue_fraction:.0%}), in flight {self.in_flight}"
            ),
            (
                f"cross-check mismatches {self.crosscheck_mismatches}, "
                f"faults injected {self.faults_injected}"
            ),
        ]
        for engine, snap in sorted(self.breakers.items()):
            reason = (
                f", last failure: {snap.last_failure_reason}"
                if snap.last_failure_reason
                else ""
            )
            lines.append(
                f"breaker[{engine}]: {snap.state} "
                f"({snap.failures} failures / {snap.successes} successes"
                f"{reason})"
            )
        if self.dispatcher_stuck:
            lines.append("WARNING: dispatcher thread failed to join")
        return "\n".join(lines)
