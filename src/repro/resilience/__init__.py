"""`repro.resilience`: the service's immune system.

X-SET's datapath keeps every PE busy as long as nothing goes wrong; a
production service on top of it must also survive the failures the
paper's simulator never models.  This package supplies the four
mechanisms, each wired through the service / engine / simulator layers:

* **Deterministic fault injection** (:mod:`~repro.resilience.faults`) —
  a seeded :class:`FaultPlan` assigns crashes, hangs, corrupted counts
  and memory stalls to jobs; named sites in the worker path, both
  engines and the memory hierarchy apply them with a single
  ``active() is None`` check, so an unarmed system pays nothing.
* **Circuit breakers** (:mod:`~repro.resilience.breaker`) — per-engine
  closed → open → half-open state machines tripped by crash-shaped or
  wrong-result failures, with configurable fallback routing (batched →
  event by default in the hardened profile).
* **Watchdog** (:mod:`~repro.resilience.watchdog`) — enforces deadlines
  on *running* jobs: hung workers are abandoned, their waiters finished
  with ``TIMEOUT``, broken pools replaced.
* **Degradation + load shedding** (:mod:`~repro.resilience.degradation`)
  — a healthy/degraded/overloaded state machine over queue depth and
  breaker states; overloaded services shed low-priority submissions with
  a typed :class:`~repro.errors.LoadShedError`.

All of it is driven by one frozen :class:`ResilienceConfig`
(:meth:`ResilienceConfig.hardened` is the fully armed profile) and
observable through the service's metrics registry, spans and the
``python -m repro health`` CLI.
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
from .policy import DEFAULT_FALLBACKS, ResilienceConfig
from .watchdog import Watchdog

__all__ = [
    "BreakerBoard",
    "BreakerSnapshot",
    "BreakerState",
    "COMM_SITES",
    "CircuitBreaker",
    "DEFAULT_FALLBACKS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HealthReport",
    "HealthState",
    "ResilienceConfig",
    "Watchdog",
    "active",
    "assess",
    "comm_active",
    "inject",
    "inject_comm",
]
