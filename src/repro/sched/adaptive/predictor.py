"""Online cost predictor: query features → predicted wall seconds.

Three prediction tiers, most specific first:

``profile``
    An EWMA of observed wall times for this exact ``(graph fingerprint,
    canonical pattern, engine)`` triple — the service feeds every
    completed job's measured run time back in, so repeated shapes converge
    on their true cost within a few observations (a cold first sample is
    dropped as soon as a run comes in at under half of it).
``throughput``
    No exact history, but the engine has completed *some* jobs: the
    analytic work proxy (:func:`~.features.analytic_work`) divided by the
    engine's learned work-units-per-second throughput.
``prior``
    Nothing observed yet: a conservative static throughput table (codegen
    fastest, batched next, the event simulator orders of magnitude
    slower), divided by a safety margin so unseen shapes are
    *over*-estimated — in the cost-ranked job queue an unmeasured shape
    then sorts behind measured cheap work instead of jumping ahead of it
    on a guess, and its first run replaces the guess with a measurement.

Accuracy is self-reported: every completed job records its
``predicted / actual`` ratio into a fixed-bucket error histogram
(``repro_predictor_error_ratio``) and a bounded window, surfaced through
``QueryService.stats().predictor`` and the Prometheus exposition.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ...obs.metrics import MetricsRegistry
from ...obs.summary import Window
from .features import QueryFeatures, analytic_work

__all__ = [
    "CostEstimate",
    "CostPredictor",
    "DEFAULT_ENGINE_SPEED",
    "ERROR_RATIO_BUCKETS",
    "EWMA_ALPHA",
    "PRIOR_MARGIN",
]

#: prior work-units/second per engine — ordered by the measured backend
#: ranking (ROADMAP: codegen fastest on every workload, event slowest).
#: Absolute values only matter until the first real observation lands.
DEFAULT_ENGINE_SPEED = {
    "codegen": 4.0e6,
    "batched": 2.0e6,
    "event": 4.0e4,
}

#: prior throughput assumed for engines absent from the table (slowest
#: known engine: unknown backends are treated as expensive until observed)
FALLBACK_ENGINE_SPEED = 4.0e4

#: the prior divides each engine's speed by this (>= 1, so an unseen shape
#: is over-estimated)
PRIOR_MARGIN = 4.0

#: weight of a new observation in the profile and throughput EWMAs
EWMA_ALPHA = 0.3

#: fixed buckets for the predicted/actual ratio histogram (1.0 = perfect;
#: log-spaced so under- and over-prediction tails are both visible)
ERROR_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 10.0, 100.0)

#: accuracy samples kept for the windowed p50/p99 ratio summary
ACCURACY_WINDOW = 512


@dataclass(frozen=True)
class CostEstimate:
    """One prediction: seconds, which tier produced it, for which engine."""

    seconds: float
    source: str  # "profile" | "throughput" | "prior"
    engine: str


class CostPredictor:
    """Thread-safe online cost model trained from completed jobs."""

    def __init__(self, *, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        #: (fingerprint, pattern_key, engine) → EWMA of observed seconds
        self._profiles: dict[tuple, float] = {}
        #: engine → (EWMA work-units/second, observation count)
        self._throughput: dict[str, tuple[float, int]] = {}
        self._accuracy = Window(ACCURACY_WINDOW)
        self._observations = 0
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def observations(self) -> int:
        return self._observations

    # -- prediction --------------------------------------------------------

    def predict(self, features: QueryFeatures, engine: str) -> CostEstimate:
        """Predicted wall seconds for running ``features`` on ``engine``."""
        key = features.key() + (engine,)
        work = analytic_work(features)
        with self._lock:
            exact = self._profiles.get(key)
            learned = self._throughput.get(engine)
        if exact is not None:
            estimate = CostEstimate(exact, "profile", engine)
        elif learned is not None and learned[1] > 0:
            estimate = CostEstimate(
                work / max(learned[0], 1e-9), "throughput", engine
            )
        else:
            speed = DEFAULT_ENGINE_SPEED.get(engine, FALLBACK_ENGINE_SPEED)
            estimate = CostEstimate(
                work / (speed / PRIOR_MARGIN), "prior", engine
            )
        self._registry.counter(
            "repro_predictions_total",
            "cost predictions served, by tier",
            source=estimate.source,
        ).inc()
        return estimate

    # -- training ----------------------------------------------------------

    def observe(
        self, features: QueryFeatures, engine: str, seconds: float
    ) -> None:
        """Fold one completed job's measured wall time into the model."""
        seconds = max(float(seconds), 1e-9)
        key = features.key() + (engine,)
        rate = analytic_work(features) / seconds
        with self._lock:
            prev = self._profiles.get(key)
            # a run has a floor (its work) and no ceiling: the first one
            # on a fresh worker also forks, attaches and compiles.  So a
            # sample under half the estimate replaces it, any other moves it
            self._profiles[key] = (
                seconds if prev is None or seconds < 0.5 * prev
                else prev + EWMA_ALPHA * (seconds - prev)
            )
            speed, count = self._throughput.get(engine, (0.0, 0))
            self._throughput[engine] = (
                (rate, 1) if count == 0
                else (speed + EWMA_ALPHA * (rate - speed), count + 1)
            )
            self._observations += 1
        self._registry.counter(
            "repro_predictor_observations_total",
            "completed jobs folded into the cost model",
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

    # -- introspection -----------------------------------------------------

    def accuracy(self) -> dict[str, float]:
        """Windowed ``{p50, p99, count, within_2x}`` of the pred/actual ratio."""
        values = self._accuracy.values()
        summary = self._accuracy.summary((50, 99))
        within = (
            sum(1 for v in values if 0.5 <= v <= 2.0) / len(values)
            if values
            else 0.0
        )
        summary["within_2x"] = within
        return summary

    def snapshot(self) -> dict:
        """``stats()``-ready view: accuracy window + model coverage."""
        with self._lock:
            profiles = len(self._profiles)
            throughput = {
                engine: rate for engine, (rate, n) in self._throughput.items()
                if n > 0
            }
            observations = self._observations
        out: dict = dict(self.accuracy())
        out["observations"] = observations
        out["profiled_shapes"] = profiles
        out["throughput_units_per_s"] = throughput
        return out
