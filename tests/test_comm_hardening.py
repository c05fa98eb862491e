"""Comm-layer hardening: corrupt frames, stalled bodies, reopen/revive.

Satellite of the replication PR: a hostile or corrupt byte stream must
produce *typed* :class:`~repro.errors.CommError` failures — never a
wedged reader — because failover can only route around failures it can
see.  Covers both directions (server reading a bad client, client
reading a bad server) plus the listener ``reopen`` / worker ``revive``
recovery path the prober relies on.
"""

import socket
import struct
import threading
import time

import pytest

from repro.cluster import ShardWorker, get_transport
from repro.cluster.comm import tcp as tcp_mod
from repro.cluster.comm.base import FRAME_HEADER, decode_body, encode_frame
from repro.core.config import xset_default
from repro.errors import (
    ClusterError,
    CommClosedError,
    CommError,
    CommTimeoutError,
)


def _tcp_port(address: str) -> tuple[str, int]:
    host, _, port = address[len("tcp://"):].rpartition(":")
    return host, int(port)


def _echo_listener(transport):
    return transport.listen(lambda p: {"echo": p}, name="hardening")


class TestDecodeBody:
    def test_garbage_raises_typed(self):
        with pytest.raises(CommError, match="corrupt stream"):
            decode_body(b"\x93not pickle at all")

    def test_truncated_pickle_raises_typed(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(CommError):
            decode_body(frame[8:-3])  # body cut short

    def test_roundtrip_still_fine(self):
        frame = encode_frame([1, "two"])
        assert decode_body(frame[8:]) == [1, "two"]


class TestServerSideHardening:
    """A misbehaving client must not wedge the listener."""

    def test_oversized_length_prefix_drops_connection(self):
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        try:
            host, port = _tcp_port(listener.address)
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(struct.pack(">Q", 1 << 40) + b"junk")
                raw.settimeout(5)
                assert raw.recv(1024) == b""  # server hung up, typed
            # the listener still serves well-behaved peers
            conn = transport.connect(listener.address)
            assert conn.request("ok", timeout=10) == {"echo": "ok"}
            conn.close()
        finally:
            listener.close()

    def test_undecodable_body_drops_connection(self):
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        try:
            host, port = _tcp_port(listener.address)
            body = b"\xffgarbage-not-pickle\xff"
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(FRAME_HEADER.pack(len(body)) + body)
                raw.settimeout(5)
                assert raw.recv(1024) == b""
            conn = transport.connect(listener.address)
            assert conn.request(1, timeout=10) == {"echo": 1}
            conn.close()
        finally:
            listener.close()

    def test_stalled_body_times_out(self, monkeypatch):
        """A peer that sends a length prefix then stalls is dropped
        after FRAME_BODY_TIMEOUT — not waited on forever."""
        monkeypatch.setattr(tcp_mod, "FRAME_BODY_TIMEOUT", 0.2)
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        try:
            host, port = _tcp_port(listener.address)
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(FRAME_HEADER.pack(64) + b"only ten b")
                raw.settimeout(5)
                started = time.monotonic()
                assert raw.recv(1024) == b""
                assert time.monotonic() - started < 4.0
            conn = transport.connect(listener.address)
            assert conn.request("x", timeout=10) == {"echo": "x"}
            conn.close()
        finally:
            listener.close()

    def test_idle_connection_is_not_dropped(self, monkeypatch):
        """The body timeout must not apply between frames: an idle but
        healthy connection stays usable past FRAME_BODY_TIMEOUT."""
        monkeypatch.setattr(tcp_mod, "FRAME_BODY_TIMEOUT", 0.2)
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        try:
            conn = transport.connect(listener.address)
            assert conn.request(1, timeout=10) == {"echo": 1}
            time.sleep(0.5)  # idle well past the body timeout
            assert conn.request(2, timeout=10) == {"echo": 2}
            conn.close()
        finally:
            listener.close()


class TestClientSideHardening:
    """A misbehaving server must fail the client with typed errors."""

    def _raw_server(self, behaviour):
        """A one-connection raw TCP server running ``behaviour(conn)``."""
        srv = socket.create_server(("127.0.0.1", 0))
        srv.settimeout(10)
        port = srv.getsockname()[1]

        def _serve():
            conn, _ = srv.accept()
            with conn:
                behaviour(conn)
            srv.close()

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        return f"tcp://127.0.0.1:{port}", thread

    def test_corrupt_reply_raises_typed_and_poisons(self):
        def behaviour(conn):
            conn.recv(65536)  # swallow the request
            body = b"\x00certainly not a pickle"
            conn.sendall(FRAME_HEADER.pack(len(body)) + body)
            time.sleep(0.2)

        address, thread = self._raw_server(behaviour)
        transport = get_transport("tcp")
        client = transport.connect(address)
        with pytest.raises(CommError):
            client.request({"op": "ping"}, timeout=10)
        # the stream is poisoned: the connection refuses further use
        with pytest.raises(CommClosedError):
            client.request({"op": "ping"}, timeout=10)
        thread.join(timeout=5)

    def test_stalled_reply_times_out_typed(self, monkeypatch):
        monkeypatch.setattr(tcp_mod, "FRAME_BODY_TIMEOUT", 0.2)

        def behaviour(conn):
            conn.recv(65536)
            conn.sendall(FRAME_HEADER.pack(50))  # prefix, then silence
            time.sleep(1.0)

        address, thread = self._raw_server(behaviour)
        transport = get_transport("tcp")
        client = transport.connect(address)
        started = time.monotonic()
        with pytest.raises(CommTimeoutError):
            client.request({"op": "ping"}, timeout=10)
        assert time.monotonic() - started < 5.0
        with pytest.raises(CommClosedError):
            client.request({"op": "ping"}, timeout=10)
        thread.join(timeout=5)


class TestReopenAndRevive:
    @pytest.mark.parametrize("name", ["inproc", "tcp"])
    def test_listener_reopen_serves_again(self, name):
        transport = get_transport(name)
        listener = transport.listen(lambda p: {"echo": p})
        address = listener.address
        listener.close()
        with pytest.raises(CommError):
            conn = transport.connect(address)
            conn.request("x", timeout=5)
        listener.reopen()
        try:
            conn = transport.connect(address)
            assert conn.request("y", timeout=10) == {"echo": "y"}
            conn.close()
        finally:
            listener.close()

    @pytest.mark.parametrize("name", ["inproc", "tcp"])
    def test_worker_revive_answers_pings_again(self, name):
        transport = get_transport(name)
        worker = ShardWorker(
            "w0", transport, xset_default(engine="batched")
        )
        try:
            conn = transport.connect(worker.address)
            assert conn.request({"op": "ping"}, timeout=10) == "pong"
            worker.kill()
            assert worker.killed
            with pytest.raises(CommError):
                fresh = transport.connect(worker.address)
                fresh.request({"op": "ping"}, timeout=5)
            worker.revive()
            assert not worker.killed
            conn2 = transport.connect(worker.address)
            assert conn2.request({"op": "ping"}, timeout=10) == "pong"
            conn2.close()
        finally:
            worker.close()

    def test_closed_worker_cannot_revive(self):
        transport = get_transport("inproc")
        worker = ShardWorker(
            "w1", transport, xset_default(engine="batched")
        )
        worker.close()
        with pytest.raises(ClusterError, match="shut down"):
            worker.revive()
