"""The coordinator: shard registration, scatter/gather, cluster health.

``register_graph`` cuts a CSR graph into contiguous vertex-range shards
(:mod:`repro.cluster.partition`) and ships each induced subgraph — with
its owned local root range — to every replica of one shard group.  A
query then scatters as per-shard root-restricted subqueries (fanned out
on a thread pool) and the replies gather through the exactly-once
:func:`repro.cluster.merge.merge_replies`.

Resilience reuses the service layer's own machinery at cluster scope:

* every *replica* gets a :class:`~repro.resilience.BreakerBoard` circuit
  — its one health record: comm failures and timeouts trip it, an open
  breaker skips the replica without burning a timeout on a peer known
  to be down, and after ``BREAKER_RECOVERY_SECONDS`` one half-open
  request decides whether it takes traffic again;
* with ``cluster_replicas >= 2`` a failed subquery **fails over** to
  the sibling with the fewest consecutive comm failures (immediately
  within a pass, ``FAILOVER_BACKOFF_SECONDS`` between the
  ``FAILOVER_ROUNDS`` passes, all bounded by ``request_timeout`` per
  subquery — the coordinator keeps no cost model, so a slow but live
  replica is waited out up to that bound);
* a shard whose *every* replica fails degrades the query instead of
  failing it: the merged report carries
  ``notes["cluster"]["partial"] = True`` plus the failed shard names,
  and only a query with **zero** surviving shards raises
  :class:`~repro.errors.ClusterError` — with a single replica per shard
  this is exactly the pre-replication behaviour;
* :meth:`Coordinator.health` gathers per-replica
  :class:`~repro.resilience.HealthReport`\\ s into a
  :class:`ClusterHealth` whose state is the worst replica state, forced
  to at least ``DEGRADED`` while any replica is unreachable or any
  breaker is non-closed.

Flight-recorder hygiene: a shard that keeps failing under sustained
chaos records **one** ``shard_failure`` event per incident (cleared by
the next success, which records ``shard_recovered``) — the black box
stays a readable story instead of one line per failed query.

The coordinator's ``metrics`` registry holds its own series only; each
shard service keeps its own.  A traced coordinator re-anchors every
shard's span tree under its scatter span and keeps, like the service,
at most ``TRACE_SPAN_LIMIT`` spans and ``PROFILE_LIMIT`` profiles.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.config import SystemConfig, xset_default
from ..errors import ClusterError, CommError
from ..graph.csr import CSRGraph
from ..obs import MetricsRegistry, Tracer
from ..obs.export import chrome_trace_events, write_chrome_trace
from ..obs.flight import FlightRecorder
from ..obs.tracing import Span
from ..patterns.plan import build_plan
from ..resilience import BreakerBoard, BreakerState, HealthReport, \
    HealthState
from ..service import service
from .comm.base import Connection, Transport, get_transport
from .merge import merge_replies
from .partition import ShardSpec, make_shards
from .worker import ShardWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import ExecutionProfile
    from ..patterns.pattern import Pattern
    from ..resilience.breaker import BreakerSnapshot
    from ..sim.report import SimReport

__all__ = ["Coordinator", "ClusterHealth", "LocalCluster"]

#: consecutive comm failures that open a replica's breaker, and how long
#: it then stays open before one probe request is let through
BREAKER_FAILURE_THRESHOLD = 2
BREAKER_RECOVERY_SECONDS = 30.0

#: passes one subquery makes over its shard's replicas, and the pause
#: before each pass after the first
FAILOVER_ROUNDS = 2
FAILOVER_BACKOFF_SECONDS = 0.05


@dataclass(frozen=True)
class ClusterHealth:
    """Aggregated cluster condition (per-replica reports + comm breakers)."""

    state: HealthState
    #: replica name → its service's health report, or None if unreachable
    shards: "Mapping[str, HealthReport | None]" = field(default_factory=dict)
    #: coordinator-side comm breaker snapshots, keyed by replica name
    breakers: "Mapping[str, BreakerSnapshot]" = field(default_factory=dict)

    @property
    def dead(self) -> tuple[str, ...]:
        return tuple(
            sorted(n for n, r in self.shards.items() if r is None)
        )

    def summary(self) -> str:
        lines = [
            f"cluster health: {self.state.name.lower()} "
            f"({len(self.shards) - len(self.dead)}/{len(self.shards)} "
            f"shards reachable)"
        ]
        for name in sorted(self.shards):
            report = self.shards[name]
            if report is None:
                lines.append(f"  {name}: UNREACHABLE")
                continue
            lines.append(
                f"  {name}: {report.state.name.lower()}, queue "
                f"{report.queue_depth}/{report.queue_limit}, in flight "
                f"{report.in_flight}"
            )
        for name, snap in sorted(self.breakers.items()):
            if snap.state != "closed":
                lines.append(f"  breaker[{name}]: {snap.state}")
        return "\n".join(lines)


@dataclass
class _Replica:
    """Coordinator-side record of one connected replica."""

    name: str
    address: str
    shard: str
    transport: Transport
    conn: "Connection | None" = None

    def connection(self) -> Connection:
        """The connection to this replica, re-dialled if poisoned."""
        # a poisoned tcp connection flags itself closed; an inproc
        # connection survives listener kill/reopen and never needs
        # replacing, so the flag check covers both
        if self.conn is None or self.conn.closed:
            self.conn = self.transport.connect(self.address)
        return self.conn

    def close(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass
        self.conn = None


@dataclass
class _ShardGroup:
    """One vertex-range shard and the replicas backing it."""

    name: str
    replicas: "list[_Replica]"


@dataclass(frozen=True)
class _ShardPlacement:
    """Where one slice of a registered graph lives."""

    shard: str
    lo: int
    hi: int
    halo_hops: int

    @property
    def owned(self) -> int:
        return self.hi - self.lo


def _register_payload(graph_id: str, spec: ShardSpec) -> dict:
    """The ``register`` op that ships one shard slice to one replica."""
    return {
        "op": "register",
        "graph_id": graph_id,
        "graph": spec.graph,
        "local_lo": spec.local_lo,
        "local_hi": spec.local_hi,
    }


def _normalize_shards(
    shards: "Sequence[tuple[str, object]]",
) -> "list[tuple[str, list[tuple[str, str]]]]":
    """Accept both shapes: ``(name, addr)`` and ``(name, [(replica,
    addr), ...])`` — the former is a single-replica group whose replica
    keeps the shard's name, which is what keeps breaker keys and flight
    events identical to the pre-replication coordinator."""
    normalized: "list[tuple[str, list[tuple[str, str]]]]" = []
    for name, spec in shards:
        if isinstance(spec, str):
            normalized.append((name, [(name, spec)]))
        else:
            members = [(str(r), str(a)) for r, a in spec]
            if not members:
                raise ClusterError(
                    f"shard {name!r} has an empty replica list"
                )
            normalized.append((name, members))
    return normalized


class Coordinator:
    """Scatter/gather front-end over a set of (replicated) shard workers."""

    def __init__(
        self,
        shards: "Sequence[tuple[str, object]]",
        transport: "Transport | str",
        config: SystemConfig | None = None,
        *,
        request_timeout: float = 120.0,
        observability: bool = False,
        flight_dir: "str | Path | None" = None,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        self.config = config or xset_default()
        self.transport = (
            get_transport(transport)
            if isinstance(transport, str)
            else transport
        )
        self.request_timeout = request_timeout
        self._groups: "list[_ShardGroup]" = []
        self._replicas: "list[_Replica]" = []
        names: set[str] = set()
        for name, members in _normalize_shards(shards):
            replicas = []
            for rname, addr in members:
                if rname in names:
                    raise ClusterError(
                        f"duplicate replica name {rname!r}"
                    )
                replica = _Replica(
                    name=rname, address=addr, shard=name,
                    transport=self.transport,
                )
                try:
                    replica.connection()
                except CommError:
                    # tolerated: the replica may come up later; its
                    # breaker decides what that means
                    pass
                replicas.append(replica)
                names.add(rname)
            self._groups.append(_ShardGroup(name=name, replicas=replicas))
            self._replicas.extend(replicas)
        self._replicated = any(len(sg.replicas) > 1 for sg in self._groups)
        #: graph_id → per-shard placements (order matches self._groups)
        self._graphs: dict[str, list[_ShardPlacement]] = {}
        #: graph_id → replica names currently holding a registered copy
        self._registered: dict[str, set[str]] = {}
        # flight recorder before the breakers: the transition callback
        # writes into it
        self.flight = FlightRecorder(
            name="coordinator", flight_dir=flight_dir
        )
        #: shards/replicas with an open failure incident (dedupes
        #: shard_failure flight events under sustained chaos)
        self._open_incidents: set[str] = set()
        self._failover_dumped = False
        self._breakers = BreakerBoard(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            recovery_seconds=BREAKER_RECOVERY_SECONDS,
            on_transition=self._on_breaker_transition,
        )
        self.metrics = MetricsRegistry()
        self.metrics.gauge(
            "repro_cluster_shards", "shard groups in this cluster"
        ).set(len(self._groups))
        self.metrics.gauge(
            "repro_cluster_replicas", "shard replicas in this cluster"
        ).set(len(self._replicas))
        # bounded by the service's limits, read at construction so a
        # test that shortens them shortens both
        self._tracer = (
            Tracer(max_spans=service.TRACE_SPAN_LIMIT)
            if observability else None
        )
        #: (shard name, profile) pairs for per-shard PE trace lanes
        self._profiles: "deque[tuple[str, ExecutionProfile]]" = deque(
            maxlen=service.PROFILE_LIMIT
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(len(self._groups), len(self._replicas)),
            thread_name_prefix="cluster-scatter",
        )
        self._shutdown = False

    # -- internals ---------------------------------------------------------

    def _span(self, name: str, **attrs):
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, **attrs)

    def _on_breaker_transition(self, shard, old, new) -> None:
        """Comm-breaker transitions land in the flight recorder."""
        self.flight.record(
            "breaker_trip" if new is BreakerState.OPEN
            else "breaker_transition",
            shard=shard,
            from_state=old.name.lower(),
            to_state=new.name.lower(),
        )

    def _end_scatter_span(self, span: "Span | None", outcome: str) -> None:
        if span is not None and self._tracer is not None:
            span.set_attr("outcome", outcome)
            self._tracer.end_span(span)

    def _record_shard_failure(self, name: str, **data) -> None:
        """First failure of an incident records a flight event; repeats
        under the same open incident stay out of the ring so sustained
        chaos cannot wash the black box out with one line per query."""
        if name in self._open_incidents:
            return
        self._open_incidents.add(name)
        self.flight.record("shard_failure", shard=name, **data)

    def _record_shard_success(self, name: str) -> None:
        if name in self._open_incidents:
            self._open_incidents.discard(name)
            self.flight.record("shard_recovered", shard=name)

    def _call(
        self,
        replica: _Replica,
        payload: dict,
        timeout: float | None = None,
    ):
        """One breaker-guarded request to one replica."""
        breaker = self._breakers.for_engine(replica.name)
        if not breaker.allow():
            raise ClusterError(
                f"shard {replica.name!r} breaker is open "
                f"(recent comm failures)"
            )
        try:
            conn = replica.connection()
            value = conn.request(
                payload,
                timeout=self.request_timeout if timeout is None
                else timeout,
            )
        except CommError as exc:
            breaker.record_failure(type(exc).__name__)
            self.metrics.counter(
                "repro_cluster_shard_failures_total",
                "scatter requests lost to comm failures",
            ).inc()
            raise
        breaker.record_success()
        return value

    def _scatter(
        self, payloads: "list[tuple[_Replica, dict]]"
    ) -> "list[tuple[_Replica, object, BaseException | None]]":
        """Fan requests out; gather ``(replica, value, error)`` triples."""
        futures = [
            (replica, self._pool.submit(self._call, replica, payload))
            for replica, payload in payloads
        ]
        results = []
        for replica, future in futures:
            try:
                results.append((replica, future.result(), None))
            except BaseException as exc:
                results.append((replica, None, exc))
        return results

    def _placements(self, graph_id: str) -> list[_ShardPlacement]:
        placements = self._graphs.get(graph_id)
        if placements is None:
            raise ClusterError(
                f"unknown cluster graph id {graph_id!r}; registered: "
                f"{', '.join(sorted(self._graphs)) or '<none>'}"
            )
        return placements

    # -- replica routing ---------------------------------------------------

    def _candidates(
        self, sg: _ShardGroup, graph_id: str
    ) -> "list[_Replica]":
        """Failover order for one subquery: the group's replicas that
        hold the graph, fewest consecutive comm failures first, then
        configured order (the sort is stable)."""
        holding = self._registered.get(graph_id, ())
        return sorted(
            (r for r in sg.replicas if r.name in holding),
            key=lambda r: self._breakers.for_engine(r.name)
            .snapshot().consecutive_failures,
        )

    def _shard_request(
        self,
        sg: _ShardGroup,
        payload: dict,
        span: "Span | None",
    ) -> "tuple[object, dict]":
        """One query's subquery against one shard group, with failover.

        Returns ``(reply value, meta)`` where meta records which
        replica served and how many failovers it took.  Raises
        :class:`ClusterError` only when every candidate replica failed
        within the retry budget and ``request_timeout``.
        """
        candidates = self._candidates(sg, payload["graph_id"])
        deadline = time.monotonic() + self.request_timeout
        try:
            value, meta = self._failover_request(
                sg, candidates, payload, deadline
            )
        except BaseException as exc:
            self._end_scatter_span(span, type(exc).__name__)
            raise
        if span is not None:
            span.set_attr("replica", meta["replica"])
            if meta["failovers"]:
                span.set_attr("failovers", meta["failovers"])
        self._end_scatter_span(span, "ok")
        return value, meta

    def _note_failover(
        self, sg: _ShardGroup, source: str, target: str, error: str
    ) -> None:
        self.metrics.counter(
            "repro_cluster_replica_failovers_total",
            "subqueries failed over to another replica",
        ).inc()
        self.flight.record(
            "replica_failover",
            shard=sg.name,
            from_replica=source,
            to_replica=target,
            error=error,
        )
        if not self._failover_dumped:
            self._failover_dumped = True
            self.flight.auto_dump("replica-failover")

    def _failover_request(
        self,
        sg: _ShardGroup,
        candidates: "list[_Replica]",
        payload: dict,
        deadline: float,
    ) -> "tuple[object, dict]":
        errors: dict[str, str] = {}
        failovers = 0
        attempts = len(candidates) * FAILOVER_ROUNDS
        for attempt in range(attempts):
            if attempt and attempt % len(candidates) == 0:
                # wrapped around: every candidate failed this round —
                # pause before hammering them again
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(FAILOVER_BACKOFF_SECONDS, remaining))
            replica = candidates[attempt % len(candidates)]
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    raise ClusterError(
                        f"shard {sg.name!r} deadline budget exhausted "
                        f"before calling {replica.name!r}"
                    )
                value = self._call(replica, payload, timeout=remaining)
            except (CommError, ClusterError) as exc:
                errors[replica.name] = repr(exc)
                nxt = candidates[(attempt + 1) % len(candidates)]
                if attempt + 1 < attempts and nxt is not replica:
                    # a retry on the same replica is not a hand-off
                    failovers += 1
                    self._note_failover(
                        sg, replica.name, nxt.name, type(exc).__name__
                    )
                continue
            return value, {"replica": replica.name, "failovers": failovers}
        raise ClusterError(
            f"shard {sg.name!r} failed on every replica within its "
            f"retry budget ({attempts} attempt(s)): "
            f"{errors or 'deadline exhausted'}"
        )

    # -- graph lifecycle ---------------------------------------------------

    def register_graph(
        self, graph: CSRGraph, graph_id: str | None = None
    ) -> str:
        """Shard ``graph`` across the workers; returns the cluster id.

        Every replica of a shard group receives the identical slice.  A
        shard group with **zero** successful replicas fails the whole
        registration (rolled back everywhere); a group that registered
        on at least one replica tolerates failed siblings, which serve
        this graph only once it is registered again.
        """
        gid = graph_id or graph.name
        if gid in self._graphs:
            raise ClusterError(
                f"cluster graph id {gid!r} already registered"
            )
        with self._span("cluster.register", graph_id=gid):
            specs = make_shards(
                graph,
                num_shards=len(self._groups),
                halo_hops=self.config.cluster_halo_hops,
            )
            results = self._scatter([
                (replica, _register_payload(gid, spec))
                for sg, spec in zip(self._groups, specs)
                for replica in sg.replicas
            ])
        ok_replicas = {
            replica.name for replica, _, exc in results if exc is None
        }
        group_failures: list[str] = []
        for sg in self._groups:
            if not any(r.name in ok_replicas for r in sg.replicas):
                group_failures.append(sg.name)
        if group_failures:
            # registration is all-or-nothing per cluster: roll back the
            # survivors so no shard holds a slice of a graph the
            # cluster never owned
            for replica, _, exc in results:
                if exc is None:
                    try:
                        self._call(
                            replica,
                            {"op": "unregister", "graph_id": gid},
                        )
                    except Exception:
                        pass
            raise ClusterError(
                f"failed to register {gid!r} on shard(s) "
                f"{', '.join(group_failures)}"
            )
        for replica, _, exc in results:
            if exc is not None:
                # the group survives on its siblings; routing skips
                # the failed replica for this graph
                self._record_shard_failure(
                    replica.name,
                    op="register",
                    graph_id=gid,
                    error=repr(exc),
                )
        self._graphs[gid] = [
            _ShardPlacement(
                shard=sg.name,
                lo=spec.lo,
                hi=spec.hi,
                halo_hops=spec.halo_hops,
            )
            for sg, spec in zip(self._groups, specs)
        ]
        self._registered[gid] = set(ok_replicas)
        return gid

    def unregister_graph(self, graph_id: str) -> None:
        """Drop ``graph_id`` on every reachable replica."""
        self._placements(graph_id)
        payloads = [
            (replica, {"op": "unregister", "graph_id": graph_id})
            for replica in self._replicas
        ]
        self._scatter(payloads)  # best effort; dead replicas tolerated
        del self._graphs[graph_id]
        self._registered.pop(graph_id, None)

    def graphs(self) -> tuple[str, ...]:
        return tuple(sorted(self._graphs))

    # -- queries -----------------------------------------------------------

    def query(
        self,
        graph_id: str,
        pattern: "Pattern",
        *,
        induced: bool | None = None,
        engine: str | None = None,
        config: SystemConfig | None = None,
        use_cache: bool = True,
    ) -> "SimReport":
        """Scatter one pattern query; gather the merged cluster report.

        A failing replica fails over to its siblings; a shard whose
        every replica fails (comm error, timeout, open breaker) degrades
        the result — ``report.notes["cluster"]`` flags the partial merge
        and names it.  Only a fully failed scatter raises.
        """
        cfg = config or self.config
        targets = self._targets(graph_id, pattern, induced)
        self.metrics.counter(
            "repro_cluster_queries_total", "cluster queries accepted"
        ).inc()
        payload = {
            "op": "query",
            "graph_id": graph_id,
            "pattern": pattern,
            "induced": induced,
            "engine": engine,
            "config": config,
            "use_cache": use_cache,
            "timeout": self.request_timeout,
            "trace": self._tracer is not None,
        }
        started = time.perf_counter()
        with self._span(
            "cluster.query",
            graph_id=graph_id,
            pattern=pattern.name,
            fan_out=len(targets),
            lane="coordinator",
        ) as qspan:
            scattered = [
                self._scatter_query(sg, placement, payload, qspan)
                for sg, placement in targets
            ]
            replies, outcome = self._gather_query(
                graph_id, pattern, scattered
            )
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "repro_cluster_query_seconds",
            "end-to-end scatter/gather query latency",
        ).observe(elapsed)
        if not replies:
            raise ClusterError(
                f"query {pattern.name!r} on {graph_id!r} failed on every "
                f"shard: {outcome['failures']}"
            )
        merged = merge_replies(
            replies,
            graph_name=graph_id,
            pattern_name=pattern.name,
        )
        merged.config_name = cfg.name
        merged.notes["cluster"] = {
            "shards": len(self._graphs[graph_id]),
            "queried": len(targets),
            **outcome,
        }
        return merged

    def _targets(
        self, graph_id: str, pattern: "Pattern", induced: "bool | None",
    ) -> "list[tuple[_ShardGroup, _ShardPlacement]]":
        """The shards to ask: every one owning at least one root, once
        the halo is known to be deep enough for the pattern."""
        placements = self._placements(graph_id)
        plan = build_plan(pattern, induced=induced)
        halo = min(p.halo_hops for p in placements)
        if plan.stop_level > halo:
            raise ClusterError(
                f"pattern {pattern.name!r} needs a {plan.stop_level}-hop "
                f"halo but {graph_id!r} was sharded with halo_hops={halo}; "
                f"re-register with cluster_halo_hops >= {plan.stop_level}"
            )
        by_name = {sg.name: sg for sg in self._groups}
        return [(by_name[p.shard], p) for p in placements if p.owned > 0]

    def _scatter_query(
        self, sg: _ShardGroup, placement: _ShardPlacement, payload: dict,
        qspan: "Span | None",
    ) -> tuple:
        """Send one shard its subquery; returns ``(shard group,
        placement, scatter span, future)`` for the gather."""
        sspan = None
        if self._tracer is not None:
            # one manually-started scatter span per shard: it is the
            # ingest parent and its start is the re-anchor point for the
            # shard's whole span tree
            sspan = self._tracer.start_span(
                "cluster.scatter",
                parent=qspan,
                shard=sg.name,
                lane="coordinator",
            )
        future = self._pool.submit(self._shard_request, sg, payload, sspan)
        return sg, placement, sspan, future

    def _gather_query(
        self, graph_id: str, pattern: "Pattern", scattered: "list[tuple]",
    ) -> "tuple[list, dict]":
        """One fold over the shard replies: the ``(root range, report)``
        pairs to merge, and the outcome half of ``notes["cluster"]`` —
        who served, failed over or failed."""
        replies: "list[tuple[tuple[int, int], SimReport]]" = []
        failed: dict[str, str] = {}
        served_by: dict[str, str] = {}
        failovers = 0
        for sg, placement, sspan, future in scattered:
            try:
                envelope, meta = future.result()
            except BaseException as exc:
                failed[sg.name] = repr(exc)
                self._record_shard_failure(
                    sg.name,
                    op="query",
                    graph_id=graph_id,
                    error=repr(exc),
                )
                continue
            self._record_shard_success(sg.name)
            failovers += meta["failovers"]
            served_by[sg.name] = meta["replica"]
            if self._tracer is not None:
                self._adopt_shard_trace(
                    sg.name, meta["replica"], envelope, sspan
                )
            replies.append(
                ((placement.lo, placement.hi), envelope["report"])
            )
        if not replies:
            self.flight.record(
                "query_failed",
                graph_id=graph_id,
                pattern=pattern.name,
                failed_shards=sorted(failed),
            )
            self.flight.auto_dump("query-failed")
        elif failed:
            self.metrics.counter(
                "repro_cluster_partial_results_total",
                "merged results missing at least one shard",
            ).inc()
            self.flight.record(
                "partial_result",
                graph_id=graph_id,
                pattern=pattern.name,
                failed_shards=sorted(failed),
            )
            self.flight.auto_dump("shard-failure")
        return replies, {
            "ok": len(replies),
            "partial": bool(failed),
            "failed_shards": sorted(failed),
            "failures": failed,
            "served_by": served_by,
            "failovers": failovers,
        }

    def _adopt_shard_trace(
        self, shard: str, replica: str, envelope: dict, sspan: Span,
    ) -> None:
        """Re-anchor one shard's span tree under its scatter span.

        The batch is shifted so its earliest start (the shard's
        ``service.job``) lands exactly at the scatter span's start —
        shards have their own ``perf_counter`` origin, so only the
        coordinator timeline is meaningful after the merge.  Adopted
        spans get ``shard``/``replica``/``lane`` attributes so the
        Chrome export gives each shard its own track.
        """
        profile = envelope.get("profile")
        if profile is not None:
            self._profiles.append((shard, profile))
        adopted = self._tracer.ingest(
            envelope.get("spans") or [], parent=sspan, align_to=sspan.start
        )
        for sp in adopted:
            sp.attrs.setdefault("shard", shard)
            sp.attrs.setdefault("replica", replica)
            sp.attrs["lane"] = shard

    def count(self, graph_id: str, pattern: "Pattern", **kwargs) -> int:
        """Cluster-wide embedding count (raises on partial results)."""
        report = self.query(graph_id, pattern, **kwargs)
        if report.notes["cluster"]["partial"]:
            raise ClusterError(
                f"partial cluster result for {pattern.name!r} on "
                f"{graph_id!r}: shards "
                f"{report.notes['cluster']['failed_shards']} failed"
            )
        return report.embeddings

    # -- health / lifecycle ------------------------------------------------

    def health(self) -> ClusterHealth:
        """Gather per-replica health; aggregate to one cluster state.

        A dead replica, or a non-closed breaker, degrades the
        cluster even while every reachable replica is individually
        healthy.  A non-healthy aggregate records a flight event and —
        once per state, when a flight dir is configured — auto-dumps the
        coordinator's ring.
        """
        results = self._scatter(
            [(r, {"op": "health"}) for r in self._replicas]
        )
        shards: dict[str, "HealthReport | None"] = {}
        worst = HealthState.HEALTHY
        for replica, report, exc in results:
            if exc is not None:
                shards[replica.name] = None
                self._record_shard_failure(
                    replica.name,
                    op="health",
                    error=repr(exc),
                )
                continue
            self._record_shard_success(replica.name)
            shards[replica.name] = report
            if report.state.value > worst.value:
                worst = report.state
        health = ClusterHealth(
            state=worst,
            shards=shards,
            breakers=self._breakers.snapshots(),
        )
        if worst is HealthState.HEALTHY and (
            health.dead
            or any(s.state != "closed" for s in health.breakers.values())
        ):
            health = replace(health, state=HealthState.DEGRADED)
        if health.state is not HealthState.HEALTHY:
            state = health.state.name.lower()
            self.flight.record(
                "health_degraded",
                state=state,
                dead=list(health.dead),
            )
            self.flight.auto_dump(f"health-{state}")
        return health

    # -- observability surfaces --------------------------------------------

    @property
    def observability(self) -> bool:
        return self._tracer is not None

    @property
    def replicated(self) -> bool:
        """True when any shard group has more than one replica."""
        return self._replicated

    def trace_events(self) -> list[dict]:
        """Chrome trace events: one merged cluster timeline.

        Coordinator spans share the ``coordinator`` lane; each shard's
        re-anchored span tree gets its own lane; each shard's PE
        activity (from shipped profiles) gets its own
        ``accelerator (cycles) — <shard>`` process.
        """
        spans, pe_groups = self._trace_sources()
        return chrome_trace_events(spans, pe_groups=pe_groups)

    def _trace_sources(self) -> "tuple[list[Span], dict[str, list]]":
        """Finished spans, and each shard's PE activity under its name."""
        if self._tracer is None:
            raise ClusterError(
                "tracing is disabled; construct the coordinator with "
                "observability=True"
            )
        pe_groups: dict[str, list] = {}
        for shard, profile in self._profiles:
            pe_groups.setdefault(shard, []).extend(profile.pe_events)
        return self._tracer.finished(), pe_groups

    def export_trace(self, path: str | None = None) -> list[dict]:
        """The merged cluster Chrome/Perfetto trace; written when ``path``
        is given.  Always returns the event list."""
        if path is None:
            return self.trace_events()
        spans, pe_groups = self._trace_sources()
        return write_chrome_trace(path, spans, pe_groups=pe_groups)

    def shutdown(self) -> None:
        """Stop the workers, then close the connections to them."""
        if self._shutdown:
            return
        self._shutdown = True
        self._scatter([(r, {"op": "shutdown"}) for r in self._replicas])
        for replica in self._replicas:
            replica.close()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Coordinator({len(self._groups)} shards, "
            f"{len(self._replicas)} replicas, "
            f"graphs={sorted(self._graphs)})"
        )


class LocalCluster:
    """Workers + coordinator in one process — the cluster's ``localhost``.

    Spins up ``num_shards`` shard groups of ``replicas``
    :class:`ShardWorker`\\ s each on the chosen transport and a
    :class:`Coordinator` over them.  With ``replicas=1`` (the default)
    workers keep the bare ``shard<i>`` names and the cluster behaves
    exactly like the pre-replication one; with more, replicas are named
    ``shard<i>/r<j>``.  ``mode`` selects each worker's service pool:
    ``inline`` for deterministic tests, ``process`` to give every shard
    its own OS process.
    :meth:`kill_shard` / :meth:`kill_replica` are the chaos hooks and
    :meth:`revive_replica` the recovery hook; killed workers are still
    resource-reclaimed by :meth:`shutdown`.
    """

    def __init__(
        self,
        num_shards: int | None = None,
        config: SystemConfig | None = None,
        *,
        transport: str = "inproc",
        mode: str = "inline",
        max_workers: int | None = None,
        observability: bool = False,
        request_timeout: float = 120.0,
        flight_dir: "str | Path | None" = None,
        replicas: int | None = None,
    ) -> None:
        self.config = config or xset_default()
        if num_shards is None:
            num_shards = self.config.cluster_shards or 2
        if num_shards < 1:
            raise ClusterError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if replicas is None:
            replicas = self.config.cluster_replicas
        if replicas < 1:
            raise ClusterError(
                f"replicas must be >= 1, got {replicas}"
            )
        self.transport_name = transport
        self.num_replicas = replicas
        tr = get_transport(transport)
        # observability propagates to every shard service: the workers
        # record the spans/profiles the coordinator re-anchors
        self.worker_groups: "list[list[ShardWorker]]" = []
        for i in range(num_shards):
            group = [
                ShardWorker(
                    f"shard{i}" if replicas == 1 else f"shard{i}/r{j}",
                    tr,
                    self.config,
                    mode=mode,
                    max_workers=max_workers,
                    observability=observability,
                )
                for j in range(replicas)
            ]
            self.worker_groups.append(group)
        self.workers: "list[ShardWorker]" = [
            worker for group in self.worker_groups for worker in group
        ]
        self.coordinator = Coordinator(
            [
                (
                    f"shard{i}",
                    [(w.name, w.address) for w in group],
                )
                for i, group in enumerate(self.worker_groups)
            ],
            tr,
            self.config,
            observability=observability,
            request_timeout=request_timeout,
            flight_dir=flight_dir,
        )

    def kill_shard(self, index: int) -> str:
        """Chaos: kill shard ``index``'s primary replica; returns its
        name.  With ``replicas=1`` this makes the whole shard
        unreachable (the pre-replication behaviour); with more, the
        siblings keep answering."""
        return self.kill_replica(index, 0)

    def kill_replica(self, shard_index: int, replica_index: int = 0) -> str:
        """Chaos: make one replica unreachable; returns its name."""
        worker = self.worker_groups[shard_index][replica_index]
        worker.kill()
        self.coordinator.flight.record("shard_kill", shard=worker.name)
        return worker.name

    def revive_replica(
        self, shard_index: int, replica_index: int = 0
    ) -> str:
        """Recovery: bring a killed replica back on its old address."""
        worker = self.worker_groups[shard_index][replica_index]
        worker.revive()
        self.coordinator.flight.record(
            "shard_revive", shard=worker.name
        )
        return worker.name

    def shutdown(self) -> None:
        """Stop everything; always reclaims shm, even for killed shards."""
        self.coordinator.shutdown()
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
