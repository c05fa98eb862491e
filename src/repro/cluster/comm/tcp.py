"""TCP transport: length-prefixed pickle frames over blocking sockets.

One request is one socket round trip on the caller's thread: the client
sends its frame and reads the reply itself, against a deadline derived
from ``timeout``.  A listener runs one accept thread, and each accepted
connection gets one serving thread that loops — read a frame, call the
handler, write ``("ok", value)`` or ``("err", exc)`` — so a shard
worker's ``query`` op, which blocks for the whole engine run, holds up
only its own connection.  Handler exceptions re-raise client-side,
matching the in-process transport's propagation semantics.  The framing
is an 8-byte big-endian length prefix followed by a pickle body — see
:mod:`repro.cluster.comm.base` for the helpers and the size cap.

Header reads take whatever the kernel holds, not exactly eight bytes:
closing a socket with unread bytes makes Linux reset the peer instead
of closing it cleanly.  A body is received straight into a buffer of
the frame's size (up to :data:`_BODY_RESERVE`, doubled as bytes arrive
beyond it).

A request that times out poisons its connection (the reply may arrive
mid-frame later), so the connection closes itself and the caller gets
:class:`~repro.errors.CommTimeoutError`; a gone peer raises
:class:`~repro.errors.CommClosedError`.  Reconnecting is the caller's
policy (the coordinator's breakers handle exactly this).

Two hardening rules keep a hostile or corrupt stream from wedging a
reader:

* **per-frame body timeout** — once a length prefix arrives, the body
  must follow within :data:`FRAME_BODY_TIMEOUT` seconds.  Waiting for a
  *header* may block forever on the server (an idle connection is
  healthy); waiting mid-frame may not (a peer that sent a prefix and
  stalled is broken or lying about the length).
* **typed corrupt-frame failure** — an over-cap length prefix or an
  undecodable body raises :class:`~repro.errors.CommError`; the server
  closes that connection (frames can never re-align on a poisoned
  stream) but keeps serving other peers.

:meth:`TCPListener.close` aborts established connections too, and
:meth:`TCPListener.reopen` rebinds the same port — the stand-in for a
crashed shard host coming back.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from ...errors import CommClosedError, CommError, CommTimeoutError
from ...resilience import faults as _faults
from .base import (
    FRAME_HEADER,
    Handler,
    decode_body,
    encode_frame,
    frame_size,
)

__all__ = ["TCPTransport", "TCPListener", "TCPConnection"]

#: seconds a reader waits for the *body* after its length prefix arrived
#: (module attribute, read per frame, so chaos tests can shrink it)
FRAME_BODY_TIMEOUT = 30.0

#: bytes asked of the kernel per header read
_RECV_CHUNK = 1 << 16

#: body bytes reserved before they arrive: a length prefix is untrusted
#: (it may claim gigabytes and send nothing), so a larger body grows by
#: doubling as it comes in
_BODY_RESERVE = 1 << 20


class _FrameSocket:
    """One connected blocking socket with buffered frame reads."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        #: bytes received past the last frame boundary
        self._pending = b""

    def _settimeout(self, deadline: float | None) -> None:
        if deadline is None:
            self.sock.settimeout(None)
            return
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self.sock.settimeout(left)

    def send(self, frame: bytes, deadline: float | None) -> None:
        self._settimeout(deadline)
        self.sock.sendall(frame)

    def read_frame(self, deadline: float | None) -> Any:
        """Read one frame; the whole frame is due by ``deadline`` (None:
        wait for the header forever) and its body within
        :data:`FRAME_BODY_TIMEOUT` of the header.

        Raises :class:`TimeoutError` when ``deadline`` passes,
        :class:`CommTimeoutError` when the body stalls,
        :class:`CommClosedError` on a clean close by the peer and
        :class:`CommError` on a corrupt frame.
        """
        pending = self._pending
        while len(pending) < FRAME_HEADER.size:
            self._settimeout(deadline)
            chunk = self.sock.recv(_RECV_CHUNK)
            if not chunk:
                raise CommClosedError("peer closed the connection")
            pending += chunk
        size = frame_size(pending[: FRAME_HEADER.size])
        start = FRAME_HEADER.size
        got = min(len(pending) - start, size)
        body = bytearray(min(size, _BODY_RESERVE))
        body[:got] = pending[start:start + got]
        self._pending = pending[start + got:]
        body_deadline = time.monotonic() + FRAME_BODY_TIMEOUT
        if deadline is not None:
            body_deadline = min(body_deadline, deadline)
        while got < size:
            if got == len(body):  # the reserve is full: double it
                body += bytes(min(got, size - got))
            try:
                self._settimeout(body_deadline)
                n = self.sock.recv_into(memoryview(body)[got:])
            except TimeoutError:
                if deadline is not None and body_deadline == deadline:
                    raise
                raise CommTimeoutError(
                    f"frame body ({size} bytes) did not arrive within "
                    f"{FRAME_BODY_TIMEOUT}s of its length prefix"
                ) from None
            if n == 0:
                raise CommClosedError("peer closed the connection mid-frame")
            got += n
        return decode_body(body)

    def abort(self) -> None:
        """Shut the socket down both ways, waking any blocked reader."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self.abort()
        self.sock.close()


class TCPListener:
    def __init__(self, handler: Handler, name: str = "") -> None:
        self._handler = handler
        self._name = name
        self._lock = threading.Lock()
        self._peers: set[_FrameSocket] = set()
        self._port = 0
        self._bind()
        host, port = self._server.getsockname()[:2]
        self._port = port
        self._address = f"tcp://{host}:{port}"

    def _bind(self) -> None:
        self._server = socket.create_server(("127.0.0.1", self._port))
        self._closed = False
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            args=(self._server,),
            name=f"comm-{self._name or 'listener'}-accept",
            daemon=True,
        )
        self._acceptor.start()

    @property
    def address(self) -> str:
        return self._address

    def _accept_loop(self, server: socket.socket) -> None:
        while True:
            try:
                sock, _ = server.accept()
            except OSError:
                return  # the listening socket was shut down by close()
            peer = _FrameSocket(sock)
            with self._lock:
                if self._closed:
                    peer.close()
                    return
                self._peers.add(peer)
            threading.Thread(
                target=self._serve,
                args=(peer,),
                name=f"comm-{self._name or 'listener'}",
                daemon=True,
            ).start()

    def _serve(self, peer: _FrameSocket) -> None:
        try:
            while True:
                try:
                    payload = peer.read_frame(None)
                except (CommError, OSError):
                    # a clean close, a reset, a corrupt length prefix, an
                    # undecodable body or a mid-frame stall: the stream
                    # can never re-align on a frame boundary again — drop
                    # this peer, keep serving everyone else
                    return
                try:
                    reply = ("ok", self._handler(payload))
                except Exception as exc:
                    reply = ("err", exc)
                peer.send(encode_frame(reply), None)
        except OSError:
            pass  # the peer went away while we answered
        finally:
            with self._lock:
                self._peers.discard(peer)
            peer.close()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            peers = list(self._peers)
        # abort established connections too: a "killed" shard must look
        # dead to peers mid-conversation, not just to new dials
        for peer in peers:
            peer.abort()
        try:
            self._server.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._server.close()
        self._acceptor.join(timeout=5.0)

    def reopen(self) -> None:
        """Rebind the same port after :meth:`close` (a restarted peer).

        Existing client connections stay dead — they were aborted and
        their streams poisoned — so callers reconnect, exactly as they
        would to a rebooted host.
        """
        if self._closed:
            self._bind()


class TCPConnection:
    def __init__(self, address: str) -> None:
        if not address.startswith("tcp://"):
            raise CommError(f"not a tcp:// address: {address!r}")
        host, _, port = address[len("tcp://"):].rpartition(":")
        try:
            sock = socket.create_connection((host, int(port)), timeout=10.0)
        except OSError as exc:
            raise CommClosedError(
                f"cannot connect to {address}: {exc}"
            ) from exc
        self._sock = _FrameSocket(sock)
        self._address = address
        self._lock = threading.Lock()  # one request in flight at a time
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def request(self, payload: Any, timeout: float | None = None) -> Any:
        with self._lock:
            if self._closed:
                raise CommClosedError("connection is closed")
            deadline = None if timeout is None else time.monotonic() + timeout
            frame = encode_frame(payload)
            inj = _faults.comm_active()
            if inj is not None:
                inj.comm("comm.send")
                frame = inj.corrupt_frame("comm.send", frame)
            try:
                self._sock.send(frame, deadline)
                status, value = self._sock.read_frame(deadline)
            except TimeoutError:
                # the reply may still arrive mid-frame later; this stream
                # can never be trusted again
                self.close()
                raise CommTimeoutError(
                    f"comm request did not complete within {timeout}s"
                ) from None
            except (CommClosedError, OSError) as exc:
                self.close()
                raise CommClosedError(
                    f"peer at {self._address} is gone: {exc!r}"
                ) from exc
            except CommError:
                # a stalled body or a corrupt reply (bad prefix / garbage
                # body): same poisoning rule — close, reconnecting is the
                # caller's policy
                self.close()
                raise
            if inj is not None:
                inj.comm("comm.recv")
        if status == "err":
            raise value
        return value

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._sock.close()


class TCPTransport:
    """Transport over localhost/remote TCP (see module docstring)."""

    def listen(self, handler: Handler, name: str = "") -> TCPListener:
        return TCPListener(handler, name)

    def connect(self, address: str) -> TCPConnection:
        return TCPConnection(address)
