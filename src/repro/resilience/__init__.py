"""`repro.resilience`: the service's immune system.

X-SET's datapath keeps every PE busy as long as nothing goes wrong; a
production service on top of it must also survive the failures the
paper's simulator never models.  This package supplies deterministic
fault injection (:mod:`~repro.resilience.faults`): a seeded
:class:`FaultPlan` assigns crashes, hangs and corrupted counts to jobs,
which ``run_job`` applies at its one site ``worker.run``, and drops,
delays and corrupt frames to the cluster's wire (``comm.send`` /
``comm.recv``).  The engines, the simulator and the memory model carry
no hook, so an unarmed system pays nothing.

The service's health classification (healthy, degraded, overloaded) is a
decision of its dispatch core, ``DispatchState.health`` in
:mod:`repro.service.core`; :class:`HealthState` and :class:`HealthReport`
live in :mod:`repro.service` and are re-exported here for the cluster
coordinator and older imports.

The service keeps one failure record per engine: the crashes and wrong
results since that engine's last clean run.  A job always runs on the
engine it names and a crash is retried there in a fresh worker; an
engine at ``ENGINE_FAILURE_LIMIT`` marks the service degraded and runs
in the pool until a run of it is clean.  The service's one resilience
setting is ``QueryService(verify_fraction=...)``, the share of jobs
cross-checked on the event engine.  Everything is observable through
the service's metrics registry, spans and the ``python -m repro
health`` CLI.  The cluster's comm breakers live in
:mod:`repro.cluster.breaker`.
"""

from .faults import (
    COMM_SITES,
    FAULT_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    comm_active,
    inject_comm,
)
from ..service.core import HealthState
from ..service.stats import HealthReport

__all__ = [
    "COMM_SITES",
    "FAULT_SITES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "HealthReport",
    "HealthState",
    "comm_active",
    "inject_comm",
]
