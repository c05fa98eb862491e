"""Incremental pattern counting on dynamic graphs (paper §2.1 scenario).

The paper motivates fixed-pattern GPM on *dynamic* data graphs — social
networks and transaction graphs evolve while the watched patterns stay the
same.  Recounting from scratch per update wastes the accelerator;
:class:`IncrementalGPM` instead maintains the count under edge insertions
and deletions by counting only embeddings that *use the updated edge*.

An edit of the pair ``(u, v)`` creates or destroys only embeddings that map
some pattern pair ``(a, b)`` onto it: a pattern edge, or, for an induced
plan, also a non-edge.  Such an embedding maps each pattern vertex ``w``
within ``min(d(w, a), d(w, b))`` hops of ``{u, v}`` in the graph that holds
the edge, because a pattern path maps to a walk there.  The largest of
these over every such pair and vertex is :func:`edge_radius`, and
:func:`edge_delta` counts the ball of that radius around the edge with and
without it.  The difference is exact, and local for the sparse graphs GPM
targets: radius 1 for cliques, DIA, WEDGE and CYC, 2 for TT, HOUSE, C5 and
P3.  The service patches its cached counts with the same function
(``QueryService.dynamic_session``).

The graph is held as one immutable :class:`CSRGraph` snapshot: a write
replaces it by ``with_edge`` / ``without_edge`` (an array splice), extracts
the ball once (vectorised BFS + induced-subgraph gather, labels kept) and
counts it with and without the edge through the plan's compiled kernel,
in the chunked sweep the ``codegen`` engine runs.  A write therefore costs
what the edge's neighbourhood costs plus one O(E) memcpy, with no per-edge
Python object; the pure-Python reference executor is not used here, which
leaves it an independent oracle for the maintained count.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

import numpy as np

from ..engine.codegen import ROOT_CHUNK
from ..engine.functional import FrontierExpander, sweep_frontier
from ..graph.algorithms import neighborhood
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from ..patterns.plan import MatchingPlan, build_plan

__all__ = ["IncrementalGPM", "edge_delta", "edge_radius"]


def _distances(pattern: Pattern, source: int) -> list[int]:
    """Hops from ``source`` to every vertex of the (connected) pattern."""
    dist = [-1] * pattern.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in pattern.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@lru_cache(maxsize=256)
def edge_radius(pattern: Pattern, induced: bool) -> int:
    """Hops around an edited pair ``(u, v)`` that hold every embedding
    the edit creates or destroys.

    The maximum, over every pattern pair ``(a, b)`` that can map onto
    ``(u, v)`` — the edges, and the non-edges too when ``induced`` — of
    the farthest pattern vertex ``w`` by ``min(d(w, a), d(w, b))``.
    """
    n = pattern.num_vertices
    dist = [_distances(pattern, s) for s in range(n)]
    pairs = combinations(range(n), 2) if induced else pattern.edge_list
    return max(
        (max(min(dist[a][w], dist[b][w]) for w in range(n))
         for a, b in pairs),
        default=0,
    )


def _count(graph: CSRGraph, plan: MatchingPlan) -> int:
    """Embeddings of ``plan`` in ``graph``, a chunk of roots at a time."""
    expander = FrontierExpander(graph, plan)
    return sweep_frontier(expander, expander.roots(), ROOT_CHUNK)[-1].count


def edge_delta(graph: CSRGraph, u: int, v: int, plan: MatchingPlan) -> int:
    """Count of ``graph`` minus count of ``graph`` less its edge ``(u, v)``,
    both taken on the :func:`edge_radius` ball around the edge.

    ``graph`` must hold the edge: it is the graph after an insert, or the
    one before a removal (whose delta is the negation).
    """
    radius = edge_radius(plan.pattern, plan.induced)
    ball = neighborhood(graph, np.array([u, v]), radius)
    with_edge = graph.induced_subgraph(ball, name="ball")
    lu, lv = np.searchsorted(ball, (u, v)).tolist()
    return _count(with_edge, plan) - _count(
        with_edge.without_edge(lu, lv), plan
    )


class IncrementalGPM:
    """Maintains an exact pattern count across edge updates.

    ``on_update`` is an optional observer called *after* every applied
    insertion/deletion as ``on_update(self, u, v, inserted, delta)``.  The
    service layer hooks this to re-register the snapshot and carry its
    cached results over to it — see ``QueryService.dynamic_session``.
    """

    def __init__(self, graph: CSRGraph, pattern: Pattern,
                 induced: bool | None = None,
                 on_update=None) -> None:
        self.pattern = pattern
        self.plan: MatchingPlan = build_plan(pattern, induced=induced)
        self._graph = graph
        self.count = _count(graph, self.plan)
        self.updates_applied = 0
        self.on_update = on_update

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def has_edge(self, u: int, v: int) -> bool:
        return self._graph.has_edge(u, v)

    def _commit(self, graph: CSRGraph, u: int, v: int, inserted: bool,
                delta: int) -> int:
        """Make ``graph`` the held snapshot, fold ``delta`` in, notify."""
        self._graph = graph
        self.count += delta
        self.updates_applied += 1
        if self.on_update is not None:
            self.on_update(self, u, v, inserted, delta)
        return delta

    # -- updates ----------------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> int:
        """Add an edge; returns the count delta (non-negative unless the
        pattern is induced).  Raises :class:`GraphFormatError` on a self
        loop or an endpoint out of range."""
        after = self._graph.with_edge(u, v)
        if after is self._graph:
            return 0
        return self._commit(
            after, u, v, True, edge_delta(after, u, v, self.plan)
        )

    def remove_edge(self, u: int, v: int) -> int:
        """Remove an edge; returns the count delta (:meth:`insert_edge`)."""
        before = self._graph
        after = before.without_edge(u, v)
        if after is before:
            return 0
        return self._commit(
            after, u, v, False, -edge_delta(before, u, v, self.plan)
        )

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """The current graph: an immutable CSR snapshot, returned without a
        copy (labels, ``name`` and ``base_address`` are the input graph's)."""
        return self._graph
