"""Cost-model-driven adaptive scheduling (``repro.sched.adaptive``).

The hardware scheduler (``repro.sched.policies``) decides which task a PE
runs next inside one simulated accelerator; this package makes the same
decision one level up, for the *service*: how costly a queued query is
predicted to be — the key the job queue (:mod:`repro.service.scheduler`)
dispatches by, and what decides whether the dispatcher runs a job
itself.  The engine is never chosen here: a job runs on the engine its
config names.  The pieces:

* :mod:`~repro.sched.adaptive.features` — deterministic, relabeling-
  invariant feature extraction per ``(graph fingerprint, canonical
  pattern)``;
* :mod:`~repro.sched.adaptive.predictor` — the online cost model
  (per-shape EWMA → learned engine throughput → conservative prior) with
  self-reported accuracy.
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

__all__ = [
    "CostEstimate",
    "CostPredictor",
    "DEFAULT_ENGINE_SPEED",
    "ERROR_RATIO_BUCKETS",
    "PlanFeatures",
    "QueryFeatures",
    "analytic_work",
    "plan_features",
    "query_features",
]
