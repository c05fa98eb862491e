"""Buffer backends for :class:`CSRGraph`: heap arrays vs shared memory.

A CSR graph is just three NumPy arrays (``indptr``, ``indices`` and the
optional ``labels``), and :class:`~repro.graph.csr.CSRGraph` accepts any
contiguous buffer for them.  This module provides the *shared-memory
backend*: the arrays are copied once into a single
:mod:`multiprocessing.shared_memory` segment, and any process on the
machine can then reconstruct the graph as zero-copy views over that
segment — no pickling, no per-worker duplication, near-instant attach.

Three pieces cooperate:

:class:`GraphSegment`
    The *creator-side* owner.  ``GraphSegment.create(graph)`` allocates one
    POSIX shm segment (``xset-<pid>-<seq>-`` + 16 hex digits of
    ``graph.fingerprint()``, which an edit splices, not re-hashes), copies
    the CSR arrays in, and must eventually :meth:`unlink` it — the
    segment outlives the creating process otherwise.
:class:`SharedGraphRef`
    The tiny picklable handle that travels to workers instead of the graph:
    segment name plus the geometry needed to slice it back into arrays.
:class:`AttachedGraph`
    The *worker-side* view.  ``attach_graph(ref)`` opens the segment by
    name and builds a :class:`CSRGraph` whose ``indptr``/``indices`` arrays
    alias the shared buffer directly.  The attachment keeps the mapping
    alive for as long as the graph is used; :meth:`AttachedGraph.close`
    releases this process's mapping (never the segment itself).

Lifecycle contract: exactly one process — the creator — unlinks.  Workers
only ever ``close()``.  On CPython < 3.13 merely *attaching* a segment
registers it with the ``resource_tracker``, which would unlink it when the
worker exits while the creator still serves it; :func:`attach_graph`
therefore attaches with the registration suppressed (the standard
workaround, see cpython#82300).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .csr import CSRGraph

__all__ = [
    "AttachedGraph",
    "GraphSegment",
    "SharedGraphRef",
    "attach_graph",
    "share_graph",
]

#: distinguishes segments of concurrent processes sharing one fingerprint
_SEQ = itertools.count()


#: serialises the window in which :func:`attach_graph` has the tracker's
#: ``register`` swapped out (segment creation must not fall into it)
_ATTACH_LOCK = threading.Lock()
_REGISTER = resource_tracker.register


def _after_fork_in_child() -> None:
    """Give a forked child unlocked locks and the real ``register``.

    Every ``SharedMemory`` create/unlink takes the tracker's lock, and
    the first one in a process holds it while the tracker process
    launches.  A pool worker forked by another thread in that window
    inherits the lock held by a thread it does not have, and blocks
    forever on its first tracker call; the attach window is the same
    hazard one level up.
    """
    global _ATTACH_LOCK
    resource_tracker._resource_tracker._lock = threading.RLock()
    _ATTACH_LOCK = threading.Lock()
    resource_tracker.register = _REGISTER


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _align8(nbytes: int) -> int:
    """Round a byte offset up to the next 8-byte boundary."""
    return (nbytes + 7) & ~7


def _quiet_close(shm) -> None:
    """Close a mapping, tolerating live NumPy views of its buffer.

    ``mmap.close`` refuses while exported pointers exist (``BufferError``);
    the mapping is then reclaimed when the last view is garbage-collected
    instead.  The handles are dropped here so ``SharedMemory.__del__``
    doesn't retry the close and surface the same error as an unraisable
    exception at GC time.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None


@dataclass(frozen=True)
class SharedGraphRef:
    """Everything a worker needs to attach to a shared graph (picklable).

    The segment layout is deterministic given the geometry below:
    ``indptr`` (int64, ``num_vertices + 1``) at offset 0, ``indices``
    (int32, ``num_indices``) next, then — 8-byte aligned — the optional
    ``labels`` (int64, ``num_vertices``).
    """

    segment: str
    fingerprint: str
    name: str
    base_address: int
    num_vertices: int
    num_indices: int
    has_labels: bool

    @property
    def indptr_bytes(self) -> int:
        return 8 * (self.num_vertices + 1)

    @property
    def indices_offset(self) -> int:
        return self.indptr_bytes

    @property
    def labels_offset(self) -> int:
        return _align8(self.indices_offset + 4 * self.num_indices)

    @property
    def total_bytes(self) -> int:
        size = self.indices_offset + 4 * self.num_indices
        if self.has_labels:
            size = self.labels_offset + 8 * self.num_vertices
        return size


class GraphSegment:
    """Creator-side owner of one shared-memory segment holding a graph.

    The creator is the only process allowed to :meth:`unlink`; everyone
    else attaches through :func:`attach_graph` and merely closes.
    """

    def __init__(self, shm, ref: SharedGraphRef) -> None:
        self._shm = shm
        self.ref = ref
        self._unlinked = False

    @classmethod
    def create(cls, graph: CSRGraph) -> "GraphSegment":
        """Copy ``graph``'s arrays into a fresh shared-memory segment."""
        fingerprint = graph.fingerprint()
        ref = SharedGraphRef(
            # keyed by content fingerprint; pid + sequence make the name
            # unique across concurrent services sharing a machine
            segment=f"xset-{os.getpid():x}-{next(_SEQ):x}-"
            f"{fingerprint[:16]}",
            fingerprint=fingerprint,
            name=graph.name,
            base_address=graph.base_address,
            num_vertices=graph.num_vertices,
            num_indices=int(graph.indices.size),
            has_labels=graph.labels is not None,
        )
        with _ATTACH_LOCK:
            shm = shared_memory.SharedMemory(
                name=ref.segment, create=True, size=ref.total_bytes
            )
        try:
            buf = shm.buf
            _view(buf, np.int64, 0, ref.num_vertices + 1)[:] = graph.indptr
            _view(buf, np.int32, ref.indices_offset, ref.num_indices)[:] = (
                graph.indices
            )
            if graph.labels is not None:
                _view(buf, np.int64, ref.labels_offset, ref.num_vertices)[
                    :
                ] = graph.labels
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, ref)

    @property
    def nbytes(self) -> int:
        return self.ref.total_bytes

    def unlink(self) -> None:
        """Release this process's mapping and remove the segment (idempotent).

        Safe while workers are still attached: POSIX keeps the memory alive
        until the last mapping closes; only the *name* disappears, so no new
        attach can start.
        """
        if self._unlinked:
            return
        self._unlinked = True
        _quiet_close(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "unlinked" if self._unlinked else f"{self.nbytes}B"
        return f"GraphSegment({self.ref.segment!r}, {state})"


class AttachedGraph:
    """Worker-side attachment: a :class:`CSRGraph` aliasing the segment."""

    def __init__(self, ref: SharedGraphRef, shm, graph: CSRGraph) -> None:
        self.ref = ref
        self._shm = shm
        self.graph = graph

    def close(self) -> None:
        """Release this process's mapping (the segment itself survives).

        With live NumPy views of the buffer the mapping lingers until the
        views are garbage-collected — see :func:`_quiet_close`.
        """
        _quiet_close(self._shm)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttachedGraph({self.ref.segment!r}, n={self.ref.num_vertices})"


def _view(buf, dtype, offset: int, count: int) -> np.ndarray:
    """A typed zero-copy view of ``count`` items at ``offset`` in ``buf``."""
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset)


def share_graph(graph: CSRGraph) -> GraphSegment:
    """Copy ``graph`` into shared memory; returns the owning segment."""
    return GraphSegment.create(graph)


def attach_graph(ref: SharedGraphRef) -> AttachedGraph:
    """Attach to a shared graph by reference — zero-copy, no validation cost
    beyond :class:`CSRGraph`'s structural checks.

    Raises ``FileNotFoundError`` when the creator already unlinked the
    segment (e.g. the graph was unregistered while this job was queued).
    """
    with _ATTACH_LOCK:
        # only the creator unlinks (see module docstring), so this process
        # must never register the name: under fork every process talks to
        # one tracker, whose cache is a set — a register-then-unregister
        # here would drop the *creator's* entry with it
        resource_tracker.register = lambda *args: None
        try:
            shm = shared_memory.SharedMemory(name=ref.segment)
        finally:
            resource_tracker.register = _REGISTER
    try:
        buf = shm.buf
        indptr = _view(buf, np.int64, 0, ref.num_vertices + 1)
        indices = _view(buf, np.int32, ref.indices_offset, ref.num_indices)
        labels = (
            _view(buf, np.int64, ref.labels_offset, ref.num_vertices)
            if ref.has_labels
            else None
        )
        graph = CSRGraph(
            indptr=indptr,
            indices=indices,
            name=ref.name,
            base_address=ref.base_address,
            labels=labels,
        )
    except BaseException:
        shm.close()
        raise
    return AttachedGraph(ref, shm, graph)
