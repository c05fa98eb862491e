"""Comm-layer hardening: corrupt frames, stalled bodies, request lifecycle.

A hostile or corrupt byte stream must produce *typed*
:class:`~repro.errors.CommError` failures — never a wedged reader —
because failover can only route around failures it can see.  Covers
both directions (server reading a bad client, client reading a bad
server), driven by raw-socket peers, plus how a request lives and dies
on a connection.
"""

import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest

from repro.cluster import get_transport
from repro.cluster.comm import tcp as tcp_mod
from repro.cluster.comm.base import FRAME_HEADER, decode_body, encode_frame
from repro.errors import (
    CommClosedError,
    CommError,
    CommTimeoutError,
)


def _tcp_port(address: str) -> tuple[str, int]:
    host, _, port = address[len("tcp://"):].rpartition(":")
    return host, int(port)


def _echo_listener(transport):
    return transport.listen(lambda p: {"echo": p}, name="hardening")


def _serving_threads():
    """Live threads serving an accepted connection of an echo listener."""
    return [
        t for t in threading.enumerate() if t.name == "comm-hardening"
    ]


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

    def test_claimed_length_reserves_bounded_memory(self):
        """A prefix may claim a large under-cap body and send nothing:
        the server reserves a bounded buffer, not what was claimed."""
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        tracemalloc.start()
        try:
            host, port = _tcp_port(listener.address)
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(FRAME_HEADER.pack(256 << 20) + b"ten bytes!")
                raw.shutdown(socket.SHUT_WR)  # the body ends mid-frame
                raw.settimeout(5)
                assert raw.recv(1024) == b""  # dropped, after the read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            listener.close()
        assert peak < 16 << 20

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


class TestRequestLifecycle:
    """Timeouts, aborts, concurrency and thread hygiene of tcp requests."""

    def test_expired_request_times_out_and_poisons(self):
        transport = get_transport("tcp")
        release = threading.Event()
        listener = transport.listen(lambda p: release.wait(5))
        try:
            conn = transport.connect(listener.address)
            started = time.monotonic()
            with pytest.raises(CommTimeoutError):
                conn.request("slow", timeout=0.2)
            assert time.monotonic() - started < 2.0
            with pytest.raises(CommClosedError):
                conn.request("next", timeout=5)
        finally:
            release.set()
            listener.close()

    def test_listener_close_fails_an_in_flight_request_fast(self):
        transport = get_transport("tcp")
        entered, release = threading.Event(), threading.Event()

        def handler(payload):
            entered.set()
            return release.wait(10)

        listener = transport.listen(handler)
        conn = transport.connect(listener.address)
        outcome = {}

        def call():
            try:
                outcome["value"] = conn.request("x", timeout=30)
            except CommError as exc:
                outcome["error"] = exc
            outcome["done"] = time.monotonic()

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        try:
            assert entered.wait(5)
            closed_at = time.monotonic()
            listener.close()
            caller.join(timeout=5)
            assert isinstance(outcome.get("error"), CommError), outcome
            assert outcome["done"] - closed_at < 2.0
        finally:
            release.set()
            listener.close()

    def test_two_connections_are_served_concurrently(self):
        transport = get_transport("tcp")
        entered, gate = threading.Event(), threading.Event()

        def handler(payload):
            if payload == "wait":
                entered.set()
                return gate.wait(5)
            gate.set()
            return "set"

        listener = transport.listen(handler)
        try:
            a = transport.connect(listener.address)
            b = transport.connect(listener.address)
            outcome = {}
            waiter = threading.Thread(
                target=lambda: outcome.update(a=a.request("wait", timeout=10)),
                daemon=True,
            )
            waiter.start()
            assert entered.wait(5)
            # served one connection at a time, B would queue behind A's
            # handler and A's wait would expire with False
            assert b.request("set", timeout=10) == "set"
            waiter.join(timeout=10)
            assert outcome == {"a": True}
            a.close()
            b.close()
        finally:
            gate.set()
            listener.close()

    def test_large_frames_round_trip(self):
        """Bodies bigger than the up-front reserve, both directions."""
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        try:
            conn = transport.connect(listener.address)
            blob = bytes(range(256)) * (12 << 10)  # 3 MiB
            assert conn.request(blob, timeout=30) == {"echo": blob}
            conn.close()
        finally:
            listener.close()

    def test_concurrent_clients_each_get_their_own_replies(self):
        """More clients than cores, a short switch interval: every reply
        reaches its own caller, and every serving thread exits."""
        transport = get_transport("tcp")
        listener = _echo_listener(transport)
        errors = []

        def client(k):
            try:
                conn = transport.connect(listener.address)
                for i in range(30):
                    assert conn.request((k, i), timeout=10) == {
                        "echo": (k, i)
                    }
                conn.close()
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, args=(k,), daemon=True)
                for k in range(6)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=20)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            deadline = time.monotonic() + 2.0
            while _serving_threads() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert _serving_threads() == []
        finally:
            listener.close()

    def test_threads_do_not_accumulate(self):
        transport = get_transport("tcp")

        def cycle():
            listener = _echo_listener(transport)
            conn = transport.connect(listener.address)
            assert conn.request(1, timeout=10) == {"echo": 1}
            conn.close()
            listener.close()

        cycle()  # warm-up: anything started once per process
        baseline = threading.active_count()
        for _ in range(20):
            cycle()
        deadline = time.monotonic() + 2.0
        while (
            threading.active_count() > baseline
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert threading.active_count() <= baseline
