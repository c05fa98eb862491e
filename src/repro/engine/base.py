"""The ``Engine`` interface and the engine table.

An execution engine turns ``(graph, plan, config)`` into a
:class:`~repro.sim.report.SimReport`.  Both engines compute the *same exact
embedding counts*; they differ in how they organise the work and how they
model time:

``event``
    The cycle-approximate event-driven simulator (heap of task-completion
    events, per-task memory streams, scheduler contention).  The reference
    for architectural studies.
``codegen``
    The one counting engine: level-synchronous frontier expansion through
    plan-specialised NumPy source, emitted and ``exec``-compiled once per
    plan (fused filters, pre-bound symmetry breaks, unrolled level loop),
    with aggregate analytic cycle charging.  Orders of magnitude faster in
    wall clock; use it when only counts (or a coarse cycle estimate for a
    design-space sweep) are needed.

Engines are named in one static table and imported on first use, so
importing this module stays cheap and free of circular imports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..core.config import SystemConfig
    from ..graph.csr import CSRGraph
    from ..patterns.plan import MatchingPlan
    from ..sim.report import SimReport

__all__ = [
    "Engine",
    "available_engines",
    "engine_descriptions",
    "get_engine",
]


class Engine(ABC):
    """One way of executing a matching plan against a data graph."""

    #: table key and the value of ``SystemConfig.engine`` that selects it
    name: str = "engine"

    #: one-line human description shown by ``python -m repro engines``;
    #: falls back to the first line of the class docstring when empty
    description: str = ""

    @abstractmethod
    def run(
        self,
        graph: "CSRGraph",
        plan: "MatchingPlan",
        config: "SystemConfig",
        roots: "np.ndarray | None" = None,
    ) -> "SimReport":
        """Execute the workload and return the metrics report.

        ``report.embeddings`` must equal the software reference count for
        any engine; timing fields are engine-specific models.  ``roots``
        optionally restricts the search to embeddings rooted at the given
        vertices (the cluster layer's partitioned matching relies on
        this); ``None`` means every vertex roots a search tree.
        """


#: every engine by name, "module:Class", imported on first use
_ENGINES: dict[str, str] = {
    "event": "repro.engine.event:EventEngine",
    "codegen": "repro.engine.codegen:CodegenEngine",
}

#: retired names :func:`get_engine` still resolves (never a config value);
#: the benchmark's ``engine.batched_mcu`` rows are the last caller
_ALIASES: dict[str, str] = {"batched": "codegen"}

#: engine instances by name — engines are stateless, one instance suffices
_INSTANCES: dict[str, Engine] = {}


def available_engines() -> tuple[str, ...]:
    """Names accepted by ``SystemConfig.engine`` / ``--engine``."""
    return tuple(sorted(_ENGINES))


def _engine_class(name: str) -> type[Engine]:
    """Import the class behind ``name``."""
    target = _ENGINES.get(name)
    if target is None:
        raise ConfigError(
            f"unknown execution engine {name!r}; "
            f"available: {', '.join(available_engines())}"
        )
    module, _, attr = target.partition(":")
    return getattr(import_module(module), attr)


def engine_descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for every engine.

    Imports every engine's module, so keep this off the library's hot
    import path — it exists for CLI/introspection surfaces.
    """
    out: dict[str, str] = {}
    for name in available_engines():
        cls = _engine_class(name)
        desc = cls.description or (cls.__doc__ or "").strip().splitlines()[0]
        out[name] = desc.strip()
    return out


def get_engine(name: str) -> Engine:
    """The engine named ``name`` (one cached instance per engine)."""
    name = _ALIASES.get(name, name)
    engine = _INSTANCES.get(name)
    if engine is None:
        engine = _INSTANCES[name] = _engine_class(name)()
    return engine
