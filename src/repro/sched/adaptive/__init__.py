"""Cost-model-driven adaptive scheduling (``repro.sched.adaptive``).

The hardware scheduler (``repro.sched.policies``) decides which task a PE
runs next inside one simulated accelerator; this package makes the same
decision one level up, for the *service*: which engine runs a query,
and how costly a queued query is predicted to be — the key the job
queue (:mod:`repro.service.scheduler`) dispatches by.  The pieces:

* :mod:`~repro.sched.adaptive.features` — deterministic, relabeling-
  invariant feature extraction per ``(graph fingerprint, canonical
  pattern)``;
* :mod:`~repro.sched.adaptive.predictor` — the online cost model
  (per-shape EWMA → learned engine throughput → conservative prior) with
  self-reported accuracy;
* :mod:`~repro.sched.adaptive.selector` — ``engine="auto"`` resolution
  from predicted cost and breaker state.
"""

from .features import (
    PlanFeatures,
    QueryFeatures,
    analytic_work,
    plan_features,
    query_features,
)
from .predictor import (
    DEFAULT_ENGINE_SPEED,
    ERROR_RATIO_BUCKETS,
    CostEstimate,
    CostPredictor,
)
from .selector import AUTO_ENGINE, AUTO_PREFERENCE, auto_engine, select_engine

__all__ = [
    "AUTO_ENGINE",
    "AUTO_PREFERENCE",
    "CostEstimate",
    "CostPredictor",
    "DEFAULT_ENGINE_SPEED",
    "ERROR_RATIO_BUCKETS",
    "PlanFeatures",
    "QueryFeatures",
    "analytic_work",
    "auto_engine",
    "plan_features",
    "query_features",
    "select_engine",
]
