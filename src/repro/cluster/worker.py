"""Shard worker: one :class:`QueryService` behind a comm listener.

A :class:`ShardWorker` owns a full, regular query service — pool, graph
registry (with shared-memory shipping), result cache, resilience — and
answers the cluster protocol over whatever transport it was given.  It
knows nothing about *how* the graph was sharded: the coordinator ships
each shard's induced subgraph plus the local owned root range, and every
``query`` op runs root-restricted to that range, so the worker's counts
are exactly "embeddings rooted in the vertices this shard owns".

Ops (payload ``{"op": ..., ...}`` → reply value):

``ping``        liveness probe → ``"pong"``
``register``    shard subgraph + owned local range → graph id
``unregister``  drop one shard graph (unlinks its shm segment)
``query``       pattern/config → envelope: the root-restricted
                :class:`SimReport`, plus the job's span tree and
                profile when the frame carries ``"trace": True``
``health``      the service's :class:`HealthReport`
``stats``       small dict (jobs run, cache hits, mode, pid)
``shutdown``    stop the service, close the listener → ``True``

A ``query`` reply is an *envelope* (a dict) rather than a bare report:
a traced query also ships the job's finished span tree and its
:class:`~repro.obs.ExecutionProfile` for coordinator-side
re-anchoring.  The shard's metrics stay in its own service registry.

:meth:`kill` simulates a crash for chaos tests: the listener drops dead
(peers see :class:`~repro.errors.CommClosedError`) but the Python state
stays reachable so :meth:`close` can still unlink shared-memory
segments — the in-process stand-in for an external janitor cleaning up
after a dead host.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..core.config import SystemConfig
from ..errors import ClusterError
from ..obs.cluster import collect_job_spans
from ..resilience import HealthReport
from ..service.service import QueryService
from .comm.base import Transport

__all__ = ["ShardWorker"]


class ShardWorker:
    """One cluster shard: a query service exposed over a transport."""

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
        self.name = name
        self.service = QueryService(
            config,
            mode=mode,
            max_workers=max_workers,
            observability=observability,
        )
        #: graph_id → owned local root range ``[lo, hi)``
        self._owned: dict[str, tuple[int, int]] = {}
        self._queries = 0
        self._killed = False
        self._closed = False
        self._listener = transport.listen(self._handle, name=name)

    @property
    def address(self) -> str:
        return self._listener.address

    @property
    def killed(self) -> bool:
        return self._killed

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
            self.service.unregister_graph(payload["graph_id"])
            self._owned.pop(payload["graph_id"], None)
        graph_id = self.service.register_graph(
            payload["graph"], payload["graph_id"]
        )
        self._owned[graph_id] = (
            int(payload["local_lo"]),
            int(payload["local_hi"]),
        )
        return graph_id

    def _op_unregister(self, payload: dict) -> int:
        graph_id = payload["graph_id"]
        dropped = self.service.unregister_graph(graph_id)
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
        handle = self.service.submit(
            graph_id,
            payload["pattern"],
            induced=payload.get("induced"),
            engine=payload.get("engine"),
            config=payload.get("config"),
            use_cache=payload.get("use_cache", True),
            root_range=owned,
        )
        report = handle.result(timeout=payload.get("timeout"))
        self._queries += 1
        profile = getattr(report, "profile", None)
        # the report itself never carries the profile over the wire: the
        # envelope ships it explicitly (spans stripped — the span tree
        # travels once, in the "spans" field)
        report.profile = None
        envelope: dict[str, Any] = {"report": report}
        ob = self.service._observation
        if payload.get("trace") and ob is not None:
            envelope["spans"] = collect_job_spans(
                ob.tracer.finished(), handle.job_id
            )
            if profile is not None:
                envelope["profile"] = replace(profile, spans=[])
        return envelope

    def _op_health(self, payload: dict) -> HealthReport:
        return self.service.health()

    def _op_stats(self, payload: dict) -> dict:
        import os

        return {
            "name": self.name,
            "queries": self._queries,
            "graphs": list(self.service.graphs()),
            "mode": self.service.mode,
            "pid": os.getpid(),
        }

    def _op_shutdown(self, payload: dict) -> bool:
        self.close()
        return True

    # -- lifecycle ---------------------------------------------------------

    def kill(self) -> None:
        """Chaos: drop dead on the wire (state stays for close)."""
        self._killed = True
        self._listener.close()

    def revive(self) -> None:
        """Recovery: come back up on the same address after :meth:`kill`.

        The service (graphs, cache, metrics) survived the "crash" —
        what died was the wire.  The coordinator takes the replica back
        through its comm breaker: at once if the breaker is closed,
        after the recovery window if it opened.  A graph registered
        while the replica was down reaches it only when re-registered.
        """
        if self._closed:
            raise ClusterError(
                f"worker {self.name!r} was shut down, not killed; "
                f"it cannot revive"
            )
        self._listener.reopen()
        self._killed = False

    def close(self) -> None:
        """Stop a live *or killed* worker: close the listener, drain and
        shut the service (which unlinks its shm segments).  Idempotent."""
        self._closed = True
        self._listener.close()
        self.service.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "killed" if self._killed else (
            "closed" if self._closed else "live"
        )
        return f"ShardWorker({self.name!r}, {self.address}, {state})"
