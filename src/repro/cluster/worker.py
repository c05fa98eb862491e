"""Shard worker: a graph registry, a result cache and ``run_job`` behind
a comm listener.

A :class:`ShardWorker` answers the cluster protocol over whatever
transport it was given.  It knows nothing about *how* the graph was
sharded: the coordinator ships each shard's induced subgraph plus the
local owned root range, and every ``query`` op runs root-restricted to
that range, so the worker's counts are exactly "embeddings rooted in the
vertices this shard owns".

The coordinator is the cluster's one scheduler: it holds one connection
per replica and one request in flight on it, so a shard never has two of
its subqueries to order.  A shard therefore keeps no queue, cost record,
dispatcher or health record.  It calls
:func:`repro.service.worker.run_job` itself — on the thread serving the
request in ``inline`` and ``thread`` mode, in its own
``ProcessPoolExecutor(max_workers)`` (created on the first query, the
graph shipped through shared memory) in ``process`` mode.

Ops (payload ``{"op": ..., ...}`` → reply value):

``ping``        liveness probe → ``"pong"``
``register``    shard subgraph + owned local range → graph id
``unregister``  drop one shard graph (unlinks its shm segment)
``query``       pattern/config → envelope: the root-restricted
                :class:`SimReport`, plus the run's span tree (rooted at
                ``worker.run_job``) and profile when the frame carries
                ``"trace": True`` and the worker was built with
                ``observability``
``shutdown``    close the listener and the pool → ``True``

A crash (a broken process pool, or an injected ``worker.run`` CRASH)
or a pool run outliving the frame's ``timeout`` leaves the shard as a
:class:`~repro.errors.ClusterError`, after a broken pool has been
dropped and a timed-out one dropped with its processes stopped, so the
next subquery runs on a fresh pool; the coordinator's failover schedule
is the one retry.  A clean report is cached under its shard root range
and served again only to a query that asks ``use_cache``.

:meth:`kill` simulates a crash for ``repro cluster --kill`` and the
chaos tests: the listener drops dead for good (peers see
:class:`~repro.errors.CommClosedError`) but the Python state stays
reachable so :meth:`close` can still unlink shared-memory segments —
the in-process stand-in for an external janitor cleaning up after a
dead host.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as PoolTimeoutError,
)
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..core.config import SystemConfig, xset_default
from ..errors import ClusterError, WorkerCrashError
from ..patterns.plan import build_plan
from ..service.cache import CacheKey, ResultCache, pattern_cache_key
from ..service.registry import GraphRegistry
from ..service.worker import run_job
from .comm.base import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import FaultPlan

__all__ = ["ShardWorker"]

#: accepted values for ``ShardWorker(mode=...)``
MODES = ("inline", "thread", "process")


class ShardWorker:
    """One cluster shard: registered graph slices answering subqueries.

    ``mode="inline"`` and ``mode="thread"`` behave the same: both run the
    subquery on the thread serving the request.  ``mode="process"`` runs
    it in the shard's own pool.
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        config: SystemConfig | None = None,
        *,
        mode: str = "inline",
        max_workers: int | None = None,
        observability: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ClusterError(
                f"unknown shard mode {mode!r}; available: "
                f"{', '.join(MODES)}"
            )
        if max_workers is not None and max_workers < 1:
            raise ClusterError(f"max_workers must be >= 1, got {max_workers}")
        self.name = name
        self.config = config or xset_default()
        self.mode = mode
        self.max_workers = max_workers
        self.observability = observability
        self._registry = GraphRegistry()
        self._cache = ResultCache()
        #: process mode only: the pool every subquery runs in
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._faults: "FaultPlan | None" = None
        #: graph_id → owned local root range ``[lo, hi)``
        self._owned: dict[str, tuple[int, int]] = {}
        #: numbers each query for its fault draw
        self._query_nos = itertools.count(1)
        self._killed = False
        self._closed = False
        self._listener = transport.listen(self._handle, name=name)

    @property
    def address(self) -> str:
        return self._listener.address

    def arm_faults(self, plan: "FaultPlan | None") -> None:
        """Arm (or, with None, disarm) a seeded fault plan: query ``n``
        runs with ``plan.for_job(n, 1)``, fired in ``run_job``."""
        self._faults = plan

    # -- protocol ----------------------------------------------------------

    def _handle(self, payload: Any) -> Any:
        if not isinstance(payload, dict) or "op" not in payload:
            raise ClusterError(f"malformed cluster request: {payload!r}")
        op = payload["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ClusterError(f"unknown cluster op {op!r}")
        return handler(payload)

    def _op_ping(self, payload: dict) -> str:
        return "pong"

    def _op_register(self, payload: dict) -> str:
        if payload["graph_id"] in self._owned:
            # idempotent re-registration: a replica that missed an
            # unregister while dead replaces its copy instead of
            # erroring the registration away
            self._op_unregister(payload)
        graph_id = self._registry.register(
            payload["graph"], payload["graph_id"]
        )
        self._owned[graph_id] = (
            int(payload["local_lo"]),
            int(payload["local_hi"]),
        )
        return graph_id

    def _op_unregister(self, payload: dict) -> int:
        graph_id = payload["graph_id"]
        record = self._registry.get(graph_id)
        dropped = len(self._cache.invalidate_fingerprint(record.fingerprint))
        self._registry.unregister(graph_id)
        self._owned.pop(graph_id, None)
        return dropped

    def _op_query(self, payload: dict) -> dict:
        graph_id = payload["graph_id"]
        owned = self._owned.get(graph_id)
        if owned is None:
            raise ClusterError(
                f"shard {self.name!r} has no registered shard graph "
                f"{graph_id!r}"
            )
        record = self._registry.get(graph_id)
        cfg = payload.get("config") or self.config
        engine = payload.get("engine")
        if engine is not None and engine != cfg.engine:
            cfg = cfg.with_overrides(engine=engine)
        pattern, induced = payload["pattern"], payload.get("induced")
        key = CacheKey(
            record.fingerprint,
            pattern_cache_key(pattern, induced),
            cfg.cache_key(),
            root_key=owned,
        )
        report = (
            self._cache.get(key) if payload.get("use_cache", True) else None
        )
        if report is None:
            plan = self._faults
            trace = self.observability and bool(payload.get("trace"))
            report = self._run(
                record.graph_id,
                record.fingerprint,
                record.ship() if self.mode == "process" else record.graph,
                build_plan(pattern, induced=induced),
                cfg,
                observe_run=trace,
                faults=(
                    plan.for_job(next(self._query_nos), 1) or None
                    if plan is not None else None
                ),
                root_range=owned,
                timeout=payload.get("timeout"),
            )
            if not report.notes.get("injected"):
                self._cache.put(key, report)
        profile = report.profile
        # the report itself never carries the profile over the wire: the
        # envelope ships it explicitly (spans stripped — the span tree
        # travels once, in the "spans" field)
        report.profile = None
        envelope: dict[str, Any] = {"report": report}
        if profile is not None:
            envelope["spans"] = profile.spans
            envelope["profile"] = replace(profile, spans=[])
        return envelope

    def _run(self, *args, timeout: float | None, **kwargs):
        """One :func:`run_job`: here, or in the process pool; a crash or a
        pool run past ``timeout`` leaves as a :class:`ClusterError` for the
        coordinator to retry."""
        pool = None
        try:
            if self.mode != "process":
                return run_job(*args, **kwargs)
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(self.max_workers)
                pool = self._pool
            return pool.submit(run_job, *args, **kwargs).result(timeout)
        except (BrokenExecutor, WorkerCrashError) as exc:
            if pool is not None and pool._broken:
                self._drop_pool(pool)
            raise ClusterError(
                f"shard {self.name!r} lost its subquery to a crash: {exc!r}"
            ) from exc
        except PoolTimeoutError as exc:
            if pool is not None:
                # the run still holds a pool process: a later subquery
                # would queue behind it and close() would wait for it
                self._drop_pool(pool, stop=True)
            raise ClusterError(
                f"shard {self.name!r} subquery outlived its {timeout}s "
                f"timeout"
            ) from exc

    def _drop_pool(
        self, pool: ProcessPoolExecutor, stop: bool = False
    ) -> None:
        """Forget ``pool`` so the next subquery starts a fresh one; with
        ``stop``, terminate its processes first (Python 3.11's executor
        has no ``terminate_workers``)."""
        with self._pool_lock:
            if self._pool is not pool:
                return  # already dropped, or taken by close()
            self._pool = None
        if stop:
            for proc in list(pool._processes.values()):
                proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _op_shutdown(self, payload: dict) -> bool:
        self.close()
        return True

    # -- lifecycle ---------------------------------------------------------

    def kill(self) -> None:
        """Chaos: drop dead on the wire for good (state stays for
        close)."""
        self._killed = True
        self._listener.close()

    def close(self) -> None:
        """Stop a live *or killed* worker: close the listener, shut the
        pool and unlink every shm segment it shipped.  Idempotent."""
        self._closed = True
        self._listener.close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._registry.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "killed" if self._killed else (
            "closed" if self._closed else "live"
        )
        return f"ShardWorker({self.name!r}, {self.address}, {state})"
