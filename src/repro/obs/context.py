"""The observation context: what "observability is on" means.

An :class:`Observation` bundles everything one observed scope collects —
a :class:`~repro.obs.tracing.Tracer` for spans, per-level accumulators
fed by the engines, PE activity traces from the simulator, and named stage
wall times.  ``observe()`` installs one as the *current* observation in a
:mod:`contextvars` variable; every instrumentation point in the engines
and the simulator starts with ``ob = current()`` and does **nothing**
when it is ``None`` — that single attribute load is the entire cost of
disabled observability, which is what keeps the hot paths honest.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterator

from .tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import ActivityTrace

__all__ = ["Observation", "current", "enabled", "observe", "span"]

_ACTIVE: ContextVar["Observation | None"] = ContextVar(
    "repro_observation", default=None
)


class Observation:
    """Everything collected while observability is enabled for a scope."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        # an explicit None check: an empty tracer is falsy (len 0)
        self.tracer = tracer if tracer is not None else Tracer()
        #: PE activity traces handed over by the event-driven simulator
        self.activities: list["ActivityTrace"] = []
        #: ``{level: {"tasks": n, "elements": w, "comparisons": c}}``
        #: (+ ``"bit_rows"`` where a frontier engine went word-parallel)
        self.levels: dict[int, dict[str, float]] = {}
        #: accumulated wall seconds per named stage
        self.stages: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- collection hooks (called by instrumented layers) ------------------

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def add_activity(self, trace: "ActivityTrace") -> None:
        with self._lock:
            self.activities.append(trace)

    def add_stage(self, name: str, seconds: float) -> None:
        with self._lock:
            self.stages[name] = self.stages.get(name, 0.0) + seconds

    def level_add(
        self,
        level: int,
        tasks: int = 0,
        elements: int = 0,
        comparisons: int = 0,
        bit_rows: int = 0,
    ) -> None:
        """Accumulate per-search-tree-level work (engines call this)."""
        with self._lock:
            acc = self.levels.get(level)
            if acc is None:
                acc = self.levels[level] = {
                    "tasks": 0.0, "elements": 0.0, "comparisons": 0.0,
                }
            acc["tasks"] += tasks
            acc["elements"] += elements
            acc["comparisons"] += comparisons
            if bit_rows:
                acc["bit_rows"] = acc.get("bit_rows", 0.0) + bit_rows

    # -- export helpers ----------------------------------------------------

    def pe_events(self) -> list[tuple[int, int, float, float]]:
        """Flattened ``(pe, level, start, end)`` events of every activity."""
        out: list[tuple[int, int, float, float]] = []
        with self._lock:
            activities = list(self.activities)
        for trace in activities:
            for e in trace.events:
                out.append((e.pe, e.level, e.start, e.end))
        return out


def current() -> Observation | None:
    """The active observation of this context, or None when disabled."""
    return _ACTIVE.get()


def enabled() -> bool:
    """True when an observation is active in this context."""
    return _ACTIVE.get() is not None


@contextmanager
def observe(
    observation: Observation | None = None,
) -> Iterator[Observation]:
    """Enable observability for the scope of the ``with`` block."""
    ob = observation or Observation()
    token = _ACTIVE.set(ob)
    try:
        yield ob
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Record a span on the current observation; no-op when disabled."""
    ob = _ACTIVE.get()
    if ob is None:
        yield None
        return
    with ob.tracer.span(name, **attrs) as sp:
        yield sp
