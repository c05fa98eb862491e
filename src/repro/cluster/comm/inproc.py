"""In-process transport: a global address registry, synchronous calls.

``listen`` parks the handler in a module-level table under a fresh
``inproc://`` address; ``connect`` looks it up; ``request`` invokes the
handler directly on the caller's thread.  There is no serialisation and
no concurrency of its own — which is exactly the point: cluster logic
exercised over this transport is deterministic, so the equivalence tests
debug sharding bugs, not socket weather.

Closed listeners stay in the table as tombstones: a connection made
before the close raises :class:`~repro.errors.CommClosedError` on its
next request, the same observable behaviour as a dead TCP peer.
:meth:`InprocListener.reopen` flips a tombstone live again — the chaos
stand-in for a crashed shard process restarting on the same address —
and existing connections resume working, like a reconnecting client.

Requests pass through the comm fault sites (``comm.send`` before the
handler, ``comm.recv`` after) when an injector is armed via
:func:`repro.resilience.inject_comm`; a ``comm.recv`` DROP therefore
loses the reply *after* the handler did the work — the ambiguous
failure replication has to tolerate.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from ...errors import CommClosedError
from ...resilience import faults as _faults
from .base import Handler, register_transport

__all__ = ["InprocTransport", "InprocListener", "InprocConnection"]

_lock = threading.Lock()
_counter = itertools.count(1)
#: address → listener (live or closed; closed ones answer with the error)
_listeners: "dict[str, InprocListener]" = {}


class InprocListener:
    def __init__(self, handler: Handler, name: str) -> None:
        suffix = f"-{name}" if name else ""
        self._handler = handler
        self._address = f"inproc://peer-{next(_counter)}{suffix}"
        self._closed = False
        with _lock:
            _listeners[self._address] = self

    @property
    def address(self) -> str:
        return self._address

    @property
    def closed(self) -> bool:
        return self._closed

    def handle(self, payload: Any) -> Any:
        if self._closed:
            raise CommClosedError(
                f"listener at {self._address} has been closed"
            )
        return self._handler(payload)

    def close(self) -> None:
        self._closed = True

    def reopen(self) -> None:
        """Come back up on the same address (a restarted peer)."""
        with _lock:
            _listeners[self._address] = self
        self._closed = False


class InprocConnection:
    def __init__(self, listener: InprocListener) -> None:
        self._listener = listener
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def request(self, payload: Any, timeout: float | None = None) -> Any:
        # timeout is accepted for interface parity; a synchronous handler
        # call cannot be interrupted, so it is not enforced here
        if self._closed:
            raise CommClosedError("connection is closed")
        inj = _faults.comm_active()
        if inj is not None:
            inj.comm("comm.send")
        value = self._listener.handle(payload)
        if inj is not None:
            inj.comm("comm.recv")
        return value

    def close(self) -> None:
        self._closed = True


class InprocTransport:
    """The in-process transport (stateless; all state is module-global)."""

    def listen(self, handler: Handler, name: str = "") -> InprocListener:
        return InprocListener(handler, name)

    def connect(self, address: str) -> InprocConnection:
        with _lock:
            listener = _listeners.get(address)
        if listener is None or listener.closed:
            raise CommClosedError(f"no live listener at {address}")
        return InprocConnection(listener)


register_transport("inproc", InprocTransport)
