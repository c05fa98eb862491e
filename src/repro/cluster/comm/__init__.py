"""Pluggable cluster comm layer: transports speaking one framed protocol.

The built-in transports (``inproc`` and ``tcp``) are one static name →
``"module:Class"`` table in :mod:`repro.cluster.comm.base`;
``get_transport(name)`` instantiates one.  See that module for the
contract.
"""

from .base import (
    Connection,
    Handler,
    Listener,
    Transport,
    available_transports,
    decode_body,
    encode_frame,
    frame_size,
    get_transport,
)
from .inproc import InprocTransport
from .tcp import TCPTransport

__all__ = [
    "Connection",
    "Handler",
    "InprocTransport",
    "Listener",
    "TCPTransport",
    "Transport",
    "available_transports",
    "decode_body",
    "encode_frame",
    "frame_size",
    "get_transport",
]
