"""Cost-model-driven adaptive scheduling (``repro.sched.adaptive``).

The hardware scheduler (``repro.sched.policies``) decides which task a PE
runs next inside one simulated accelerator; this package makes the same
decision one level up, for the *service*: how costly a queued query is
predicted to be — the key the job queue (:mod:`repro.service.scheduler`)
dispatches by, and what decides whether the dispatcher runs a job
itself.  The engine is never chosen here: a job runs on the engine its
config names.  The pieces:

* :mod:`~repro.sched.adaptive.features` — a query's shape, the record's
  key: ``(graph fingerprint, canonical pattern)``, plus the engine;
* :mod:`~repro.sched.adaptive.predictor` — the cost record: each shape's
  fastest clean run per engine, ``math.inf`` for a shape never run, with
  self-reported accuracy.
"""

from .features import QueryFeatures, query_features
from .predictor import CostPredictor

__all__ = ["CostPredictor", "QueryFeatures", "query_features"]
