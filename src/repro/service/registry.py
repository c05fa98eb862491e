"""The graph registry: load once, ship to workers by reference.

Graphs are registered with the service once and referenced by id in every
job.  A job that runs in the registering process reads the live
:class:`CSRGraph` (``GraphRecord.graph``); nothing is pickled or copied
for it.  A job sent to another process carries what
:meth:`GraphRecord.ship` returns, built lazily on the first ship: a
:class:`~repro.graph.store.SharedGraphRef` to one
:mod:`multiprocessing.shared_memory` segment holding the CSR arrays
(keyed by ``CSRGraph.fingerprint()``), which every worker process
attaches zero-copy instead of unpickling its own replica.  When the
segment cannot be created the record falls back to pickling the graph
once and shipping the bytes, which workers deserialise at most once per
fingerprint (see :mod:`repro.service.worker`).

Segment lifecycle: :meth:`GraphRecord.release` unlinks — called by
:meth:`GraphRegistry.unregister` and :meth:`GraphRegistry.close` (which
``QueryService.shutdown`` invokes).  :meth:`GraphRegistry.update` swaps in
a new snapshot under the same id; the *old* record may still be pinned by
queued jobs, so its segment is unlinked by a ``weakref.finalize`` hook as
soon as the last job drops it (and at interpreter exit at the latest).
The fingerprint change on update is what invalidates cached results.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from dataclasses import dataclass, field

from ..errors import ServiceError
from ..graph.csr import CSRGraph
from ..graph.store import GraphSegment, share_graph

__all__ = ["GraphRecord", "GraphRegistry"]


@dataclass
class GraphRecord:
    """One registered graph plus its lazily built shipping artifacts."""

    graph_id: str
    graph: CSRGraph
    fingerprint: str
    _payload: bytes | None = field(default=None, repr=False)
    _segment: "GraphSegment | None" = field(default=None, repr=False)
    #: True once segment creation failed — don't retry every dispatch
    _segment_failed: bool = field(default=False, repr=False)
    _finalizer: "weakref.finalize | None" = field(default=None, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    @property
    def shared(self) -> bool:
        """True while this record owns a live shared-memory segment."""
        with self._lock:
            return self._segment is not None

    def ship(self):
        """The payload that sends this graph to another process.

        A shared-memory reference, created on the first ship; the pickle
        fallback covers a segment creation that raises.
        """
        with self._lock:
            if self._segment is not None:
                return self._segment.ref
            if not self._segment_failed:
                try:
                    segment = share_graph(self.graph)
                except Exception:
                    self._segment_failed = True
                else:
                    self._segment = segment
                    # belt and braces: if release() is never called (the
                    # record was replaced by update() while jobs still
                    # pinned it), unlink when the record is collected —
                    # weakref.finalize also runs at interpreter exit
                    self._finalizer = weakref.finalize(
                        self, segment.unlink
                    )
                    return segment.ref
            if self._payload is None:
                self._payload = pickle.dumps(self.graph, protocol=-1)
            return self._payload

    def release(self) -> None:
        """Unlink the shared segment (idempotent; pickle bytes stay)."""
        with self._lock:
            segment, self._segment = self._segment, None
            finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if segment is not None:
            segment.unlink()


class GraphRegistry:
    """Thread-safe id → :class:`GraphRecord` mapping."""

    def __init__(self) -> None:
        self._records: dict[str, GraphRecord] = {}
        #: weak refs to records replaced by :meth:`update` whose segments
        #: may still be pinned by queued jobs.  Weak so the per-record GC
        #: finalizer still unlinks as soon as the last job drops one, but
        #: kept so :meth:`close` can unlink survivors deterministically —
        #: without this, a graph updated (or sharded by the cluster layer)
        #: and then unregistered mid-query would leave its retired segment
        #: in /dev/shm until interpreter exit.
        self._retired: list["weakref.ref[GraphRecord]"] = []
        self._lock = threading.Lock()

    def register(self, graph: CSRGraph, graph_id: str | None = None) -> str:
        """Register ``graph``; returns its id (defaults to ``graph.name``).

        Re-registering the identical graph under the same id is a no-op;
        registering a *different* graph under an id in use raises — use
        :meth:`update` to replace a graph deliberately.
        """
        gid = graph_id or graph.name
        fingerprint = graph.fingerprint()
        with self._lock:
            existing = self._records.get(gid)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    return gid
                raise ServiceError(
                    f"graph id {gid!r} already registered with different "
                    f"content; use update_graph() to replace it"
                )
            self._records[gid] = GraphRecord(
                graph_id=gid, graph=graph, fingerprint=fingerprint
            )
        return gid

    def get(self, graph_id: str) -> GraphRecord:
        with self._lock:
            record = self._records.get(graph_id)
            # snapshot the keys for the error while still holding the
            # lock — iterating the live dict outside it can race a
            # register/unregister and raise RuntimeError instead
            known = None if record is not None else sorted(self._records)
        if record is None:
            raise ServiceError(
                f"unknown graph id {graph_id!r}; registered: "
                f"{', '.join(known) or '<none>'}"
            )
        return record

    def update(self, graph_id: str, graph: CSRGraph) -> tuple[str, str]:
        """Replace the graph behind ``graph_id``; returns (old, new) prints.

        The caller (the service) is responsible for invalidating cache
        entries keyed on the old fingerprint.  The old record's segment is
        *not* unlinked here — queued jobs pinned the record at submit time
        and may still attach; its finalizer unlinks once they are done.
        """
        fingerprint = graph.fingerprint()
        with self._lock:
            record = self._records.get(graph_id)
            if record is None:
                raise ServiceError(f"unknown graph id {graph_id!r}")
            old = record.fingerprint
            self._retired = [r for r in self._retired if r() is not None]
            self._retired.append(weakref.ref(record))
            self._records[graph_id] = GraphRecord(
                graph_id=graph_id,
                graph=graph,
                fingerprint=fingerprint,
            )
        return old, fingerprint

    def unregister(self, graph_id: str) -> None:
        """Drop ``graph_id`` and unlink its shared segment, if any."""
        with self._lock:
            record = self._records.pop(graph_id, None)
        if record is not None:
            record.release()

    def close(self) -> None:
        """Unlink every live segment (service shutdown); keeps the records.

        Retired records (replaced by :meth:`update`) are released too:
        shutdown means no queued job will ever attach again, so waiting on
        their finalizers would only delay the /dev/shm unlink.
        """
        with self._lock:
            records = list(self._records.values())
            retired_refs, self._retired = self._retired, []
        retired = [r for ref in retired_refs if (r := ref()) is not None]
        for record in records + retired:
            record.release()

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._records))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
