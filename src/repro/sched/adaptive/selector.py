"""Engine auto-selection: ``engine="auto"`` resolved per query.

Every backend computes byte-identical embedding counts (the functional
layer is shared — see :mod:`repro.engine`), so engine choice is purely a
latency decision and safe to automate.  ``select_engine`` picks the
candidate with the lowest predicted wall time, skipping engines whose
circuit breaker is open so auto-selection composes with the resilience
fallback chain instead of fighting it: a breaker-tripped codegen backend
simply stops being chosen until it recovers.

Outside the service (``run_on_soc``, ``XSetAccelerator``, the CLI) there
is no predictor or breaker board; :func:`auto_engine` falls back to the
static preference order — the measured backend ranking from the engine
benchmarks (codegen fastest on every workload).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ...engine.base import available_engines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .features import QueryFeatures
    from .predictor import CostEstimate, CostPredictor

__all__ = ["AUTO_ENGINE", "AUTO_PREFERENCE", "auto_engine", "select_engine"]

#: the sentinel accepted by ``SystemConfig.engine`` / ``--engine``
AUTO_ENGINE = "auto"

#: static fallback ranking when no prediction or breaker data exists
#: (fastest first; ``benchmarks/e2e`` times each as ``engine.*_mcu``)
AUTO_PREFERENCE = ("codegen", "batched", "event")


def auto_engine(candidates: Sequence[str] | None = None) -> str:
    """The static auto choice: first preferred engine that is registered."""
    names = tuple(candidates) if candidates is not None else available_engines()
    for engine in AUTO_PREFERENCE:
        if engine in names:
            return engine
    if not names:
        raise ValueError("no execution engines are registered")
    return names[0]


def select_engine(
    predictor: "CostPredictor",
    features: "QueryFeatures",
    *,
    candidates: Sequence[str] | None = None,
    allow: Callable[[str], bool] | None = None,
) -> "CostEstimate":
    """Lowest-predicted-cost engine for this query.

    ``allow`` is the breaker gate (``lambda e: board.for_engine(e).allow()``
    in the service); engines it rejects are excluded unless *every*
    candidate is rejected, in which case the full set is reconsidered —
    an all-breakers-open service should still dispatch (advisory-breaker
    semantics) rather than having no engine at all.

    Ties break by the static preference order, so an untrained predictor
    (every estimate from the same prior tier but different speeds) and a
    fully degenerate one (identical estimates) both stay deterministic.
    """
    names = tuple(candidates) if candidates is not None else available_engines()
    if not names:
        raise ValueError("no execution engines are registered")
    if allow is not None:
        open_ok = tuple(e for e in names if allow(e))
        if open_ok:
            names = open_ok
    rank = {engine: i for i, engine in enumerate(AUTO_PREFERENCE)}
    best = None
    for engine in names:
        estimate = predictor.predict(features, engine)
        order = (estimate.seconds, rank.get(engine, len(rank)), engine)
        if best is None or order < best[0]:
            best = (order, estimate)
    assert best is not None
    return best[1]
