"""Execution engines: functional expansion × temporal modelling.

The engine layer splits plan execution into two orthogonal concerns —

* :mod:`repro.engine.functional`: exact candidate-set expansion (what the
  hardware computes), shared by both engines;
* :mod:`repro.engine.temporal`: cycle-cost annotation (how long it takes),
  exact per-task for the event simulator, aggregate-analytic for codegen
  execution —

and names the two engines behind one :class:`Engine` interface: ``event``
and ``codegen`` (plan-compiled NumPy kernels emitted by
:mod:`repro.patterns.codegen`, the one counting engine).  Select one with
``SystemConfig(engine="codegen")``, ``XSetAccelerator(engine="codegen")``
or ``python -m repro count --engine codegen``.
"""

from .base import (
    Engine,
    available_engines,
    engine_descriptions,
    get_engine,
)

__all__ = [
    "Engine",
    "available_engines",
    "engine_descriptions",
    "get_engine",
]
