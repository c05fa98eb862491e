"""Comm-layer contract: transports, listeners, connections, frames.

The cluster speaks one tiny request/response protocol: a *payload* (any
picklable object, in practice a ``{"op": ...}`` dict) goes out, one reply
payload comes back.  Everything else — where the peer lives, how bytes
move — is a :class:`Transport`:

* ``inproc`` (:mod:`repro.cluster.comm.inproc`) — an in-process registry
  with synchronous handler calls.  Deterministic, zero-copy, no sockets;
  what the tests and the default local cluster run on.
* ``tcp`` (:mod:`repro.cluster.comm.tcp`) — length-prefixed pickle frames
  over blocking sockets, one round trip on the caller's thread per
  request and one serving thread per accepted connection, for shards in
  other processes or on other hosts.

Failure vocabulary is shared: a gone peer (refused, reset, listener
closed) raises :class:`~repro.errors.CommClosedError`; an expired request
raises :class:`~repro.errors.CommTimeoutError`.  The coordinator maps
both onto per-shard circuit breakers, so transports must never invent
their own exception types.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable, Protocol, runtime_checkable

from ...errors import CommError

__all__ = [
    "Connection",
    "Listener",
    "Transport",
    "Handler",
    "encode_frame",
    "frame_size",
    "decode_body",
    "register_transport",
    "get_transport",
    "available_transports",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
]

#: request handler: one payload in, one reply payload out
Handler = Callable[[Any], Any]

#: 8-byte big-endian unsigned length prefix
FRAME_HEADER = struct.Struct(">Q")

#: refuse frames above this size (a corrupt length prefix would otherwise
#: ask the reader to allocate petabytes)
MAX_FRAME_BYTES = 1 << 32


@runtime_checkable
class Connection(Protocol):
    """One client endpoint speaking the request/response protocol."""

    def request(self, payload: Any, timeout: float | None = None) -> Any:
        """Send ``payload``; block for the reply (one in flight at a time)."""
        ...

    @property
    def closed(self) -> bool:
        """True once the connection was closed or poisoned by a failed
        request; a closed connection never serves again."""
        ...

    def close(self) -> None: ...


@runtime_checkable
class Listener(Protocol):
    """A bound server endpoint dispatching requests to its handler."""

    @property
    def address(self) -> str: ...

    def close(self) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Factory for listeners and connections of one wire flavour."""

    def listen(self, handler: Handler, name: str = "") -> Listener: ...

    def connect(self, address: str) -> Connection: ...


def encode_frame(payload: Any) -> bytes:
    """Serialise one payload as a length-prefixed pickle frame."""
    body = pickle.dumps(payload, protocol=-1)
    return FRAME_HEADER.pack(len(body)) + body


def frame_size(header: bytes) -> int:
    """Validate and decode one length prefix."""
    (size,) = FRAME_HEADER.unpack(header)
    if size > MAX_FRAME_BYTES:
        raise CommError(
            f"frame length {size} exceeds the {MAX_FRAME_BYTES}-byte cap "
            f"(corrupt stream?)"
        )
    return size


def decode_body(body: bytes) -> Any:
    """Deserialise one frame body.

    A body that does not unpickle — a corrupt length prefix silently
    misaligned the stream, or the peer sent garbage — raises a typed
    :class:`~repro.errors.CommError` so readers fail fast instead of
    propagating whatever :mod:`pickle` felt like raising (or, worse,
    blocking forever on a frame boundary that will never line up again).
    """
    try:
        return pickle.loads(body)
    except CommError:
        raise
    except Exception as exc:
        raise CommError(
            f"undecodable {len(body)}-byte frame body "
            f"(corrupt stream?): {exc!r}"
        ) from exc


_TRANSPORTS: dict[str, Callable[[], Transport]] = {}


def register_transport(name: str, factory: Callable[[], Transport]) -> None:
    """Register a transport factory under ``name`` (idempotent)."""
    _TRANSPORTS[name] = factory


def get_transport(name: str) -> Transport:
    """Instantiate the transport registered as ``name``."""
    try:
        factory = _TRANSPORTS[name]
    except KeyError:
        raise CommError(
            f"unknown transport {name!r}; available: "
            f"{', '.join(available_transports())}"
        ) from None
    return factory()


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(_TRANSPORTS))
