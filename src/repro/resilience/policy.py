"""The one knob bundle: :class:`ResilienceConfig`.

Everything the resilience layer does is governed by this frozen config,
passed as ``QueryService(resilience=...)``.  The defaults are chosen so
that, absent failures, a default service behaves **byte-identically** to
one without the resilience layer: breakers exist but never trip on a
healthy engine, the watchdog only acts on jobs that carry a deadline and
overrun it, cross-checking is off (``verify_fraction=0``), and no
fallback routes are installed.

:meth:`ResilienceConfig.hardened` returns the fully armed profile used
by the chaos suite, the ``health --chaos`` CLI and the demo: batched
queries fall back to the event engine on a tripped breaker, a fraction
of queries are cross-checked on the second engine, and an open breaker
with no usable fallback fails fast with a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ResilienceConfig", "DEFAULT_FALLBACKS"]

#: the canonical fallback route: the compiled-kernel engine degrades to
#: the interpreted batched engine, which degrades to the reference
#: event-driven engine (also the cross-check oracle) — codegen→batched→event
DEFAULT_FALLBACKS: tuple[tuple[str, str], ...] = (
    ("codegen", "batched"),
    ("batched", "event"),
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the resilience layer (see module docstring)."""

    #: master switch — False disables breakers, watchdog and shedding
    enabled: bool = True

    # -- circuit breakers --------------------------------------------------
    #: consecutive failures that trip an engine's breaker OPEN
    failure_threshold: int = 3
    #: seconds an OPEN breaker waits before allowing half-open probes
    recovery_seconds: float = 30.0
    #: ``(engine, fallback_engine)`` routes used while a breaker is open
    #: and as a last resort when crash retries are exhausted
    fallbacks: tuple[tuple[str, str], ...] = ()
    #: fail jobs fast (CircuitOpenError) when the breaker is open and no
    #: fallback is usable; False = dispatch anyway (advisory breaker)
    fail_fast: bool = False

    # -- sampled cross-checking --------------------------------------------
    #: fraction of jobs re-run on the fallback engine to detect silent
    #: corruption (deterministic per job id; 0.0 = off)
    verify_fraction: float = 0.0
    #: seed of the cross-check sampler
    verify_seed: int = 0

    # -- watchdog ----------------------------------------------------------
    #: background scan period of the watchdog thread (pool modes)
    watchdog_interval: float = 0.05

    def fallback_for(self, engine: str) -> str | None:
        """The configured fallback route out of ``engine``, if any."""
        for primary, fallback in self.fallbacks:
            if primary == engine:
                return fallback
        return None

    @classmethod
    def hardened(cls, **overrides) -> "ResilienceConfig":
        """The fully armed profile (fallbacks + cross-check + fail-fast)."""
        cfg = cls(
            fallbacks=DEFAULT_FALLBACKS,
            fail_fast=True,
            verify_fraction=0.25,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def disabled(cls) -> "ResilienceConfig":
        """Everything off — the pre-resilience service behaviour."""
        return cls(enabled=False)
