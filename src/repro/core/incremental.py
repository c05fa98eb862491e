"""Incremental pattern counting on dynamic graphs (paper §2.1 scenario).

The paper motivates fixed-pattern GPM on *dynamic* data graphs — social
networks and transaction graphs evolve while the watched patterns stay the
same.  Recounting from scratch per update wastes the accelerator;
:class:`IncrementalGPM` instead maintains the count under edge insertions
and deletions by counting only embeddings that *use the updated edge*.

Every embedding containing edge ``(u, v)`` lies inside the ball of radius
``diameter(P)`` around ``{u, v}``, so the delta is computed as the count
difference on that induced neighbourhood — exact, and local for the sparse
graphs GPM targets.

The graph is held as one immutable :class:`CSRGraph` snapshot: a write
replaces it by ``with_edge`` / ``without_edge`` (an array splice), extracts
the ball once (vectorised BFS + induced-subgraph gather, labels kept) and
counts it with and without the edge on the vectorised frontier expansion
the ``batched`` engine runs.  A write therefore costs what the edge's
neighbourhood costs plus one O(E) memcpy, with no per-edge Python object;
the pure-Python reference executor is not used here, which leaves it an
independent oracle for the maintained count.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..engine.batched import ROOT_CHUNK
from ..engine.functional import FrontierExpander, sweep_frontier
from ..graph.algorithms import neighborhood
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from ..patterns.plan import MatchingPlan, build_plan

__all__ = ["IncrementalGPM", "pattern_diameter"]


def pattern_diameter(pattern: Pattern) -> int:
    """Longest shortest path in the (connected) pattern graph."""
    best = 0
    for source in range(pattern.num_vertices):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in pattern.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


class IncrementalGPM:
    """Maintains an exact pattern count across edge updates.

    ``on_update`` is an optional observer called *after* every applied
    insertion/deletion as ``on_update(self, u, v, inserted, delta)``.  The
    service layer hooks this to invalidate (or delta-patch) cached results
    whose graph changed — see ``QueryService.dynamic_session``.
    """

    def __init__(self, graph: CSRGraph, pattern: Pattern,
                 induced: bool | None = None,
                 on_update=None) -> None:
        self.pattern = pattern
        self.plan: MatchingPlan = build_plan(pattern, induced=induced)
        self._radius = pattern_diameter(pattern)
        self._graph = graph
        self.count = self._count(graph)
        self.updates_applied = 0
        self.on_update = on_update

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def has_edge(self, u: int, v: int) -> bool:
        return self._graph.has_edge(u, v)

    # -- counting -------------------------------------------------------------

    def _count(self, graph: CSRGraph) -> int:
        """Embeddings of the plan in ``graph``, a chunk of roots at a time."""
        expander = FrontierExpander(graph, self.plan)
        return sweep_frontier(expander, expander.roots(), ROOT_CHUNK)[-1].count

    def _edge_delta(self, graph: CSRGraph, u: int, v: int) -> int:
        """Count of ``graph`` minus count of ``graph`` less its edge
        ``(u, v)``, both taken on the ball around the edge."""
        ball = neighborhood(graph, np.array([u, v]), self._radius)
        with_edge = graph.induced_subgraph(ball, name="ball")
        lu, lv = np.searchsorted(ball, (u, v)).tolist()
        return self._count(with_edge) - self._count(
            with_edge.without_edge(lu, lv)
        )

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
            after, u, v, True, self._edge_delta(after, u, v)
        )

    def remove_edge(self, u: int, v: int) -> int:
        """Remove an edge; returns the count delta (:meth:`insert_edge`)."""
        before = self._graph
        after = before.without_edge(u, v)
        if after is before:
            return 0
        return self._commit(
            after, u, v, False, -self._edge_delta(before, u, v)
        )

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """The current graph: an immutable CSR snapshot, returned without a
        copy (labels, ``name`` and ``base_address`` are the input graph's)."""
        return self._graph
