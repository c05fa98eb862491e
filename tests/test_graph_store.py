"""Shared-memory graph store: roundtrips, lifecycle, service integration.

The contract under test (see ``repro/graph/store.py``):

* a graph shared into a segment attaches back byte-identical and
  zero-copy in any process that holds the :class:`SharedGraphRef`;
* exactly one owner unlinks — ``unregister``/``close``/``release`` — and
  unlink is idempotent and safe while attachments exist;
* thread/inline service pools never build pickle payloads or segments
  (the lazy-ship fix), and process pools attach instead of unpickling;
* after ``QueryService.shutdown()`` no segment survives.
"""

from __future__ import annotations

import gc
import os
import signal
import threading

import numpy as np
import pytest

from repro.core import XSetAccelerator
from repro.errors import ServiceError
from repro.graph import CSRGraph, attach_graph, erdos_renyi, share_graph
from repro.patterns import PATTERNS
from repro.service import QueryService, registry, worker
from repro.service.registry import GraphRecord, GraphRegistry
from repro.service.worker import worker_graph_cache_info


def shm_segments() -> list[str]:
    """Graph-store segments currently visible in /dev/shm (Linux)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return [f for f in os.listdir("/dev/shm") if f.startswith("xset-")]


@pytest.fixture
def segments_fail(monkeypatch):
    """Every shared-memory segment the registry tries to create fails."""
    def refuse(graph):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(registry, "share_graph", refuse)


@pytest.fixture
def labeled_graph():
    g = erdos_renyi(120, 8.0, seed=11, name="shm-labeled")
    g.labels = np.arange(g.num_vertices, dtype=np.int64) % 3
    return g


class TestRoundtrip:
    def test_share_attach_roundtrip(self, medium_er):
        segment = share_graph(medium_er)
        try:
            attached = attach_graph(segment.ref)
            g = attached.graph
            assert np.array_equal(g.indptr, medium_er.indptr)
            assert np.array_equal(g.indices, medium_er.indices)
            assert g.name == medium_er.name
            assert g.fingerprint() == medium_er.fingerprint()
            attached.close()
        finally:
            segment.unlink()

    def test_attached_arrays_are_views_not_copies(self, medium_er):
        segment = share_graph(medium_er)
        try:
            attached = attach_graph(segment.ref)
            # zero-copy: the arrays alias the shm buffer, they don't own
            # their data
            assert not attached.graph.indptr.flags.owndata
            assert not attached.graph.indices.flags.owndata
            attached.close()
        finally:
            segment.unlink()

    def test_labels_roundtrip_with_alignment(self, labeled_graph):
        segment = share_graph(labeled_graph)
        try:
            assert segment.ref.has_labels
            # int64 labels must land 8-byte aligned after int32 indices
            assert segment.ref.labels_offset % 8 == 0
            attached = attach_graph(segment.ref)
            assert np.array_equal(attached.graph.labels, labeled_graph.labels)
            assert attached.graph.fingerprint() == labeled_graph.fingerprint()
            attached.close()
        finally:
            segment.unlink()

    def test_ref_is_picklable_and_small(self, medium_er):
        import pickle

        segment = share_graph(medium_er)
        try:
            blob = pickle.dumps(segment.ref)
            # the whole point: the per-job payload is a handle, not the CSR
            assert len(blob) < 1024
            assert pickle.loads(blob) == segment.ref
        finally:
            segment.unlink()


class TestLifecycle:
    def test_unlink_is_idempotent(self, small_er):
        segment = share_graph(small_er)
        segment.unlink()
        segment.unlink()  # second call must be a no-op

    def test_attach_after_unlink_raises(self, small_er):
        segment = share_graph(small_er)
        ref = segment.ref
        segment.unlink()
        with pytest.raises(FileNotFoundError):
            attach_graph(ref)

    def test_unlink_safe_while_attached(self, small_er):
        segment = share_graph(small_er)
        attached = attach_graph(segment.ref)
        segment.unlink()  # name gone, but the mapping stays valid
        assert int(attached.graph.indptr[-1]) == small_er.indices.size
        attached.close()

    def test_attach_in_child_forked_during_a_tracker_call(self, small_er):
        """A pool worker forked while another thread is inside a
        resource-tracker call inherits the tracker's lock held by a
        thread that does not exist in the child — for the whole tracker
        launch when it is the process's first segment — and used to
        block forever on its first attach (the intermittent tier-1
        stall: two shard services in one process, one creating its
        first segment while the other forks its first worker)."""
        from multiprocessing import resource_tracker

        segment = share_graph(small_er)
        held, release = threading.Event(), threading.Event()

        def mid_tracker_call():
            with resource_tracker._resource_tracker._lock:
                held.set()
                release.wait(30.0)

        other = threading.Thread(target=mid_tracker_call)
        other.start()
        try:
            assert held.wait(10.0)
            pid = os.fork()
            if pid == 0:  # the forked worker: attach, report, leave
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(10)  # a hang ends the child, not the suite
                try:
                    attach_graph(segment.ref).close()
                    os._exit(0)
                finally:
                    os._exit(1)
            _, status = os.waitpid(pid, 0)
            assert status == 0, "forked attach hung (SIGALRM) or failed"
        finally:
            release.set()
            other.join(10.0)
            segment.unlink()

    def test_a_failed_segment_ships_pickle_bytes(
        self, small_er, segments_fail
    ):
        svc = QueryService(mode="process", max_workers=1)
        try:
            gid = svc.register_graph(small_er, "g")
            got = svc.count(gid, PATTERNS["3CF"], use_cache=False)
            record = svc._registry.get(gid)
            assert isinstance(record.ship(), bytes)
            assert not record.shared
            info = svc._executor.submit(worker_graph_cache_info).result()
            assert info["fills"] == 1 and info["attaches"] == 0
        finally:
            svc.shutdown()
        assert got.embeddings == XSetAccelerator().count(
            small_er, PATTERNS["3CF"]
        ).embeddings

    def test_no_segments_leak_from_this_module(self):
        # meaningful because this file creates/unlinks many segments above
        assert shm_segments() == []


class TestGraphRecordShip:
    def make_record(self, graph) -> GraphRecord:
        return GraphRecord(
            graph_id="g", graph=graph, fingerprint=graph.fingerprint()
        )

    def test_process_ship_creates_segment_once(self, small_er):
        record = self.make_record(small_er)
        try:
            ref1 = record.ship()
            ref2 = record.ship()
            assert ref1 is ref2
            assert ref1.fingerprint == small_er.fingerprint()
            assert record.shared
            assert record._payload is None  # no pickle on the shm path
        finally:
            record.release()

    def test_process_ship_falls_back_to_pickle_when_disabled(
        self, small_er, segments_fail
    ):
        record = self.make_record(small_er)
        payload = record.ship()
        assert isinstance(payload, bytes)
        assert not record.shared

    def test_release_unlinks_and_is_idempotent(self, small_er):
        record = self.make_record(small_er)
        ref = record.ship()
        record.release()
        record.release()
        assert not record.shared
        with pytest.raises(FileNotFoundError):
            attach_graph(ref)


class TestRegistryLifecycle:
    def test_unregister_unlinks(self, small_er):
        registry = GraphRegistry()
        gid = registry.register(small_er, "g")
        ref = registry.get(gid).ship()
        registry.unregister(gid)
        assert gid not in registry.ids()
        with pytest.raises(FileNotFoundError):
            attach_graph(ref)

    def test_close_unlinks_every_segment(self, small_er, medium_er):
        registry = GraphRegistry()
        refs = []
        for gid, g in (("a", small_er), ("b", medium_er)):
            registry.register(g, gid)
            refs.append(registry.get(gid).ship())
        registry.close()
        for ref in refs:
            with pytest.raises(FileNotFoundError):
                attach_graph(ref)

    def test_update_retires_old_segment_via_finalizer(self, small_er):
        registry = GraphRegistry()
        registry.register(small_er, "g")
        old_record = registry.get("g")
        old_ref = old_record.ship()
        replacement = erdos_renyi(40, 5.0, seed=99, name="replacement")
        registry.update("g", replacement)
        # queued jobs would pin the old record; here nothing does, so GC
        # runs its finalizer and the retired segment disappears
        del old_record
        gc.collect()
        with pytest.raises(FileNotFoundError):
            attach_graph(old_ref)

    def test_unknown_id_raises(self):
        registry = GraphRegistry()
        with pytest.raises(ServiceError, match="unknown graph id"):
            registry.get("nope")


class TestServiceIntegration:
    def test_inline_service_never_builds_shipping_artifacts(self, medium_er):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(medium_er, "g")
            svc.submit(gid, PATTERNS["3CF"]).result(timeout=60)
            svc.submit(gid, PATTERNS["DIA"], use_cache=False).result(
                timeout=60
            )
            record = svc._registry.get(gid)
            # the lazy-payload rule: nothing was pickled, no segment built
            assert record._payload is None
            assert not record.shared

    def test_process_pool_attaches_instead_of_unpickling(self, medium_er):
        svc = QueryService(mode="process", max_workers=1)
        try:
            gid = svc.register_graph(medium_er, "g")
            r1 = svc.submit(gid, PATTERNS["3CF"], use_cache=False).result(
                timeout=120
            )
            r2 = svc.submit(gid, PATTERNS["TT"], use_cache=False).result(
                timeout=120
            )
            assert r1.embeddings >= 0 and r2.embeddings >= 0
            info = svc._executor.submit(worker_graph_cache_info).result()
            # the acceptance criterion: the worker attached the segment
            # exactly once and never unpickled a CSR payload
            assert info["attaches"] == 1
            assert info["fills"] == 0
            assert info["graphs"] == [gid]
            ref = svc._registry.get(gid).ship()
        finally:
            svc.shutdown()
        # all segments unlinked on shutdown
        with pytest.raises(FileNotFoundError):
            attach_graph(ref)
        assert shm_segments() == []

    def test_process_pool_counts_match_inline(self, medium_er):
        with QueryService(mode="inline") as inline_svc:
            gid = inline_svc.register_graph(medium_er, "g")
            want = inline_svc.count(gid, PATTERNS["TT"]).embeddings
        svc = QueryService(mode="process", max_workers=1)
        try:
            gid = svc.register_graph(medium_er, "g")
            got = svc.count(gid, PATTERNS["TT"]).embeddings
        finally:
            svc.shutdown()
        assert got == want

    def test_unregister_graph_drops_segment_and_cache(self, small_er):
        with QueryService(mode="inline") as svc:
            gid = svc.register_graph(small_er, "g")
            svc.count(gid, PATTERNS["3CF"])
            ref = svc._registry.get(gid).ship()
            dropped = svc.unregister_graph(gid)
            assert dropped >= 1
            assert gid not in svc.graphs()
            with pytest.raises(FileNotFoundError):
                attach_graph(ref)


class TestWorkerGraphCache:
    def test_threads_resolving_one_new_snapshot_attach_it_once(
        self, small_er, monkeypatch
    ):
        # each thread waits inside its attach for the other: the
        # interleaving in which both missed the cache, both attached, and
        # the mapping that lost the store was dropped unclosed
        barrier = threading.Barrier(2)
        real_attach = worker.attach_graph

        def attach(ref):
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass  # the other thread is held outside, on the cache
            return real_attach(ref)

        monkeypatch.setattr(worker, "attach_graph", attach)
        segment = share_graph(small_er)
        attaches = worker._SHM_ATTACHES
        resolved = []

        def resolve():
            resolved.append(
                worker._resolve_graph("race", "fp-race", segment.ref)
            )

        try:
            threads = [threading.Thread(target=resolve) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert worker._SHM_ATTACHES == attaches + 1
            assert len(resolved) == 2 and resolved[0] is resolved[1]
        finally:
            entry = worker._GRAPH_CACHE.pop("race", None)
            if entry is not None:
                entry[2].close()
            worker._SHM_ATTACHES = attaches
            segment.unlink()
