"""In-process transport: a global address registry, synchronous calls.

``listen`` parks the handler in a module-level table under a fresh
``inproc://`` address; ``connect`` looks it up; ``request`` invokes the
handler directly on the caller's thread.  There is no serialisation and
no concurrency of its own — which is exactly the point: cluster logic
exercised over this transport is deterministic, so the equivalence tests
debug sharding bugs, not socket weather.

Closing a listener takes it out of the table, so nothing keeps its
handler (and the shard behind it) alive: a new dial to the address
raises :class:`~repro.errors.CommClosedError`, and so does the next
request on a connection made before the close — the same observable
behaviour as a dead TCP peer.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from ...errors import CommClosedError
from .base import Handler

__all__ = ["InprocTransport", "InprocListener", "InprocConnection"]

_lock = threading.Lock()
_counter = itertools.count(1)
#: address → live listener
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

    def handle(self, payload: Any) -> Any:
        if self._closed:
            raise CommClosedError(
                f"listener at {self._address} has been closed"
            )
        return self._handler(payload)

    def close(self) -> None:
        self._closed = True
        with _lock:
            _listeners.pop(self._address, None)


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
        return self._listener.handle(payload)

    def close(self) -> None:
        self._closed = True


class InprocTransport:
    """The in-process transport (stateless; all state is module-global)."""

    def listen(self, handler: Handler, name: str = "") -> InprocListener:
        return InprocListener(handler, name)

    def connect(self, address: str) -> InprocConnection:
        with _lock:
            listener = _listeners.get(address)
        if listener is None:
            raise CommClosedError(f"no live listener at {address}")
        return InprocConnection(listener)
