"""`repro.resilience`: the service's immune system.

X-SET's datapath keeps every PE busy as long as nothing goes wrong; a
production service on top of it must also survive the failures the
paper's simulator never models.  This package supplies three
mechanisms, each wired through the service / engine / simulator layers:

* **Deterministic fault injection** (:mod:`~repro.resilience.faults`) —
  a seeded :class:`FaultPlan` assigns crashes, hangs, corrupted counts
  and memory stalls to jobs; named sites in the worker path, both
  engines and the memory hierarchy apply them with a single
  ``active() is None`` check, so an unarmed system pays nothing.
* **Circuit breakers** (:mod:`~repro.resilience.breaker`) — per-engine
  closed → open → half-open state machines tripped by crash-shaped or
  wrong-result failures.  They are advisory: a job always runs on the
  engine it names, a crash is retried there in a fresh worker, and an
  open breaker marks the service degraded.
* **Degradation** (:mod:`~repro.resilience.degradation`) — a
  healthy/degraded/overloaded state over queue depth and breaker states,
  reported by ``health()`` and read by the cluster coordinator.

The service's one resilience setting is
``QueryService(verify_fraction=...)``, the share of jobs cross-checked
on the event engine.  Everything is observable through the service's
metrics registry, spans and the ``python -m repro health`` CLI.
"""

from .breaker import (
    BreakerBoard,
    BreakerSnapshot,
    BreakerState,
    CircuitBreaker,
)
from .degradation import (
    HealthReport,
    HealthState,
    assess,
)
from .faults import (
    COMM_SITES,
    FAULT_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    active,
    comm_active,
    inject,
    inject_comm,
)

__all__ = [
    "BreakerBoard",
    "BreakerSnapshot",
    "BreakerState",
    "COMM_SITES",
    "CircuitBreaker",
    "FAULT_SITES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HealthReport",
    "HealthState",
    "active",
    "assess",
    "comm_active",
    "inject",
    "inject_comm",
]
