"""Flight recorder: a bounded ring of structured job-lifecycle events.

Metrics tell you *how much*; traces tell you *where time went*; the
flight recorder tells you *what happened, in order* — the last N
submit / dispatch / retry / failed / breaker-trip / shard-kill events,
cheap enough to record unconditionally (one deque append per event) and
bounded so an always-on recorder can never grow without limit.

When something goes wrong (cluster health degrades, a chaos kill fires)
the recorder dumps itself to a JSON file — the black-box-after-the-crash
workflow: the dump for a killed shard shows exactly which jobs were in
flight, which breaker tripped, and when the coordinator noticed.

Automatic dumps are written only when a directory has been configured
(the ``REPRO_FLIGHT_DIR`` environment variable or an explicit
``flight_dir=``) so routine chaos *tests* don't litter the working
tree; manual :meth:`FlightRecorder.dump` always works.  Each distinct
``reason`` dumps at most once per recorder, so a flapping health check
cannot spam the disk.

Read back with :meth:`FlightRecorder.events` / :meth:`FlightRecorder.counts`
(``python -m repro health --json`` prints the service's counts; a shard's
counts ride its ``health`` reply) or from a :meth:`FlightRecorder.dump`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

__all__ = ["FlightEvent", "FlightRecorder", "FLIGHT_DIR_ENV"]

#: environment variable naming the directory for automatic dumps
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: default ring capacity — enough to cover the interesting window around
#: an incident without unbounded growth
DEFAULT_CAPACITY = 2048


@dataclass(frozen=True)
class FlightEvent:
    """One recorded event: wall-clock timestamp, kind, structured data."""

    ts: float
    kind: str
    data: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"ts": self.ts, "kind": self.kind, **dict(self.data)}


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`FlightEvent`\\ s."""

    def __init__(
        self,
        name: str = "service",
        capacity: int = DEFAULT_CAPACITY,
        *,
        flight_dir: str | Path | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._flight_dir = flight_dir
        self._clock = clock
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._dumped_reasons: set[str] = set()
        self._dumps: list[Path] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ record
    def record(self, kind: str, **data: Any) -> FlightEvent:
        event = FlightEvent(ts=self._clock(), kind=kind, data=data)
        with self._lock:
            self._events.append(event)
        return event

    def events(self, kind: str | None = None) -> list[FlightEvent]:
        with self._lock:
            events = list(self._events)
        if kind is None:
            return events
        return [e for e in events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """``{kind: occurrences}`` over the current ring contents."""
        out: dict[str, int] = {}
        for event in self.events():
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self.events())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dumped_reasons.clear()

    # -------------------------------------------------------------- dump
    def to_payload(self, reason: str | None = None) -> dict[str, Any]:
        return {
            "recorder": self.name,
            "capacity": self.capacity,
            "dumped_at": self._clock(),
            "reason": reason,
            "events": [e.to_dict() for e in self.events()],
        }

    @property
    def flight_dir(self) -> Path | None:
        """Directory for automatic dumps, or None when unconfigured."""
        if self._flight_dir is not None:
            return Path(self._flight_dir)
        env = os.environ.get(FLIGHT_DIR_ENV)
        return Path(env) if env else None

    @property
    def dumps(self) -> list[Path]:
        """Paths written by this recorder (manual and automatic)."""
        with self._lock:
            return list(self._dumps)

    def dump(
        self, path: str | Path | None = None, *, reason: str | None = None
    ) -> Path:
        """Write the ring to JSON; default path is ``flight-<name>.json``
        in the configured flight dir (or the current directory)."""
        if path is None:
            base = self.flight_dir or Path(".")
            path = base / f"flight-{self.name}.json"
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(reason), indent=2, sort_keys=True)
            + "\n"
        )
        with self._lock:
            self._dumps.append(target)
        return target

    def auto_dump(self, reason: str) -> Path | None:
        """Dump once per distinct ``reason``, only when a flight dir is
        configured.  Returns the written path, or None when skipped."""
        if self.flight_dir is None:
            return None
        with self._lock:
            if reason in self._dumped_reasons:
                return None
            self._dumped_reasons.add(reason)
        self.record("dump", reason=reason)
        safe = "".join(
            c if c.isalnum() or c in "-_." else "-" for c in reason
        )
        return self.dump(
            self.flight_dir / f"flight-{self.name}-{safe}.json",
            reason=reason,
        )
