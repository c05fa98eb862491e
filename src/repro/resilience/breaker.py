"""Per-engine circuit breakers: closed → open → half-open → closed.

A :class:`CircuitBreaker` watches one execution engine.  Consecutive
crash-shaped or wrong-result failures trip it OPEN.  The service's
breakers are advisory: a job still runs on the engine it names, but
while the breaker is not closed the service reports itself degraded and
runs no job of that engine on its dispatcher thread.  After
``recovery_seconds`` the breaker lets a bounded number of *probe* jobs
through (HALF_OPEN); one success closes it, one failure re-opens it and
restarts the recovery clock.  The cluster coordinator holds one breaker
per replica, and there a refusing breaker skips the replica.

The clock is injectable (the service passes its own), so recovery
windows are testable without real sleeps, and every transition is
observable: the service exports one state gauge per engine plus a
transition counter.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["BreakerState", "BreakerSnapshot", "CircuitBreaker", "BreakerBoard"]

#: concurrent trial jobs allowed while HALF_OPEN
HALF_OPEN_PROBES = 1


class BreakerState(enum.Enum):
    """Lifecycle of one breaker (values are the exported gauge levels)."""

    CLOSED = 0     #: healthy — requests flow normally
    HALF_OPEN = 1  #: probing — a bounded number of trial requests allowed
    OPEN = 2       #: tripped — allow() refuses until the recovery window


@dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time view of one breaker (for ``health()`` / stats)."""

    engine: str
    state: str
    consecutive_failures: int
    failures: int
    successes: int
    last_failure_reason: str | None


class CircuitBreaker:
    """Failure-counting state machine guarding one engine."""

    def __init__(
        self,
        engine: str,
        *,
        failure_threshold: int = 3,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[
            [str, BreakerState, BreakerState], None
        ] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.engine = engine
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        #: called as (engine, old_state, new_state) on every transition,
        #: while the breaker lock is held — keep it cheap and never call
        #: back into the breaker (the flight recorder's deque append is
        #: the intended shape)
        self._on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive = 0
        self._failures = 0
        self._successes = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._last_reason: str | None = None
        self._transitions = 0
        self._lock = threading.Lock()

    # -- state machine ------------------------------------------------------

    def _set_state(self, state: BreakerState) -> None:
        if state is not self._state:
            old = self._state
            self._state = state
            self._transitions += 1
            if self._on_transition is not None:
                self._on_transition(self.engine, old, state)

    def allow(self) -> bool:
        """May a job be dispatched to this engine right now?

        In HALF_OPEN this *consumes* a probe slot — pair every ``True``
        with a later ``record_success``/``record_failure``.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at < self.recovery_seconds:
                    return False
                self._set_state(BreakerState.HALF_OPEN)
                self._probes_in_flight = 0
            # HALF_OPEN: bounded concurrent probes
            if self._probes_in_flight >= HALF_OPEN_PROBES:
                return False
            self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            self._successes += 1
            self._consecutive = 0
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(self._probes_in_flight - 1, 0)
                self._set_state(BreakerState.CLOSED)

    def record_failure(self, reason: str = "crash") -> None:
        with self._lock:
            self._failures += 1
            self._consecutive += 1
            self._last_reason = reason
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(self._probes_in_flight - 1, 0)
                self._opened_at = self._clock()
                self._set_state(BreakerState.OPEN)
            elif (
                self._state is BreakerState.CLOSED
                and self._consecutive >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._set_state(BreakerState.OPEN)

    # -- introspection ------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            # surface the pending OPEN → HALF_OPEN transition lazily, the
            # same way allow() would
            if (
                self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.recovery_seconds
            ):
                return BreakerState.HALF_OPEN
            return self._state

    @property
    def transitions(self) -> int:
        with self._lock:
            return self._transitions

    def snapshot(self) -> BreakerSnapshot:
        state = self.state  # resolves the lazy OPEN → HALF_OPEN edge
        with self._lock:
            return BreakerSnapshot(
                engine=self.engine,
                state=state.name.lower(),
                consecutive_failures=self._consecutive,
                failures=self._failures,
                successes=self._successes,
                last_failure_reason=self._last_reason,
            )


class BreakerBoard:
    """Lazily-created breaker per engine, sharing one policy and clock."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[
            [str, BreakerState, BreakerState], None
        ] | None = None,
    ) -> None:
        self._kwargs = dict(
            failure_threshold=failure_threshold,
            recovery_seconds=recovery_seconds,
            clock=clock,
            on_transition=on_transition,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_engine(self, engine: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(engine)
            if breaker is None:
                breaker = self._breakers[engine] = CircuitBreaker(
                    engine, **self._kwargs
                )
            return breaker

    def states(self) -> dict[str, BreakerState]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: b.state for name, b in breakers.items()}

    def snapshots(self) -> dict[str, BreakerSnapshot]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: b.snapshot() for name, b in breakers.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)
