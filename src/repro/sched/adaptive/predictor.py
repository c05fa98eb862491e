"""The service's cost record: each query shape's fastest clean run.

A shape (:class:`~.features.QueryFeatures` on one engine) always does the
same work, and a run of it has a floor, that work, and no ceiling: a
worker's first run of a shape also compiles its kernel and builds the
snapshot's derived indexes, and a busy host shares its cores.  So the
record keeps the fastest clean run of each shape, and that is its price.
A minimum does not depend on the order the runs come in.  A shape with
no clean run is priced ``math.inf``: in the cost-ranked job queue it
sorts behind every measured job, in submit order, and the queue's aging
bound still bounds its wait.

Accuracy is self-reported for measured shapes: every clean run of a shape
priced before it ran records its ``predicted / actual`` ratio into a
fixed-bucket error histogram (``repro_predictor_error_ratio``) and a
bounded window, surfaced through ``QueryService.stats().predictor`` and
the Prometheus exposition.
"""

from __future__ import annotations

import math
import threading

from ...obs.metrics import MetricsRegistry
from ...obs.summary import Window
from .features import QueryFeatures

__all__ = ["CostPredictor", "ERROR_RATIO_BUCKETS"]

#: fixed buckets for the predicted/actual ratio histogram (1.0 = perfect;
#: log-spaced so under- and over-prediction tails are both visible)
ERROR_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 10.0, 100.0)

#: accuracy samples kept for the windowed p50/p99 ratio summary
ACCURACY_WINDOW = 512


class CostPredictor:
    """Thread-safe record of each query shape's fastest clean run."""

    def __init__(self, *, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        #: (shape, engine) → fastest clean run, seconds
        self._fastest: dict[tuple[QueryFeatures, str], float] = {}
        self._accuracy = Window(ACCURACY_WINDOW)
        self._observations = 0
        self._lock = threading.Lock()

    def predict(self, features: QueryFeatures, engine: str) -> float:
        """Seconds of the fastest clean run of ``features`` on ``engine``;
        ``math.inf`` when none has been observed."""
        return self._fastest.get((features, engine), math.inf)

    def observe(
        self, features: QueryFeatures, engine: str, seconds: float
    ) -> None:
        """Fold one clean run's measured wall time into the record."""
        seconds = max(float(seconds), 1e-9)
        key = (features, engine)
        with self._lock:
            self._fastest[key] = min(self._fastest.get(key, math.inf), seconds)
            self._observations += 1
        self._registry.counter(
            "repro_predictor_observations_total",
            "completed jobs folded into the cost record",
            engine=engine,
        ).inc()

    def record_accuracy(self, predicted: float, actual: float) -> None:
        """Record one predicted-vs-actual outcome (ratio = pred/actual)."""
        ratio = max(float(predicted), 1e-9) / max(float(actual), 1e-9)
        self._accuracy.add(ratio)
        self._registry.histogram(
            "repro_predictor_error_ratio",
            "predicted / actual wall-time ratio per completed job",
            buckets=ERROR_RATIO_BUCKETS,
        ).observe(ratio)

    def accuracy(self) -> dict[str, float]:
        """Windowed ``{p50, p99, count, within_2x}`` of the pred/actual ratio."""
        values = self._accuracy.values()
        summary = self._accuracy.summary((50, 99))
        summary["within_2x"] = (
            sum(1 for v in values if 0.5 <= v <= 2.0) / len(values)
            if values
            else 0.0
        )
        return summary

    def snapshot(self) -> dict:
        """``stats()``-ready view: accuracy window + record coverage."""
        with self._lock:
            shapes, observations = len(self._fastest), self._observations
        out: dict = dict(self.accuracy())
        out["observations"] = observations
        out["shapes"] = shapes
        return out
