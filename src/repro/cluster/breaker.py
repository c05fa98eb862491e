"""Per-replica comm breakers: closed → open → half-open → closed.

The coordinator holds one :class:`CircuitBreaker` per replica, the
replica's one health record.  Consecutive comm failures trip it OPEN,
and an open breaker fails a request to that replica at once instead of
burning a timeout on a peer known to be down; failover tries the
replicas with the fewest consecutive failures first.  After
``recovery_seconds`` the breaker lets a bounded number of *probe*
requests through (HALF_OPEN); one success closes it, one failure
re-opens it and restarts the recovery clock.

A breaker's clock is injectable, so a recovery window is testable
without real sleeps; :meth:`CircuitBreaker.snapshot` is the record of a
breaker's state and failure history.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["BreakerState", "BreakerSnapshot", "CircuitBreaker", "BreakerBoard"]

#: concurrent trial requests allowed while HALF_OPEN
HALF_OPEN_PROBES = 1


class BreakerState(enum.Enum):
    """Lifecycle of one breaker."""

    CLOSED = 0     #: healthy — requests flow normally
    HALF_OPEN = 1  #: probing — a bounded number of trial requests allowed
    OPEN = 2       #: tripped — allow() refuses until the recovery window


@dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time view of one breaker (for ``health()``)."""

    name: str
    state: str
    consecutive_failures: int
    failures: int
    successes: int
    last_failure_reason: str | None


class CircuitBreaker:
    """Failure-counting state machine guarding one replica."""

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive = 0
        self._failures = 0
        self._successes = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._last_reason: str | None = None
        self._lock = threading.Lock()

    # -- state machine ------------------------------------------------------

    def allow(self) -> bool:
        """May a request be sent to this replica right now?

        In HALF_OPEN this *consumes* a probe slot — pair every ``True``
        with a later ``record_success``/``record_failure``.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at < self.recovery_seconds:
                    return False
                self._state = BreakerState.HALF_OPEN
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
                self._state = BreakerState.CLOSED

    def record_failure(self, reason: str = "crash") -> None:
        with self._lock:
            self._failures += 1
            self._consecutive += 1
            self._last_reason = reason
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(self._probes_in_flight - 1, 0)
                self._opened_at = self._clock()
                self._state = BreakerState.OPEN
            elif (
                self._state is BreakerState.CLOSED
                and self._consecutive >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._state = BreakerState.OPEN

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

    def snapshot(self) -> BreakerSnapshot:
        state = self.state  # resolves the lazy OPEN → HALF_OPEN edge
        with self._lock:
            return BreakerSnapshot(
                name=self.name,
                state=state.name.lower(),
                consecutive_failures=self._consecutive,
                failures=self._failures,
                successes=self._successes,
                last_failure_reason=self._last_reason,
            )


class BreakerBoard:
    """Lazily-created breaker per replica, sharing one policy."""

    def __init__(
        self, *, failure_threshold: int = 3, recovery_seconds: float = 30.0
    ) -> None:
        self._kwargs = dict(
            failure_threshold=failure_threshold,
            recovery_seconds=recovery_seconds,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_replica(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name, **self._kwargs
                )
            return breaker

    def snapshots(self) -> dict[str, BreakerSnapshot]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: b.snapshot() for name, b in breakers.items()}
