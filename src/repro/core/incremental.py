"""Incremental pattern counting on dynamic graphs (paper §2.1 scenario).

The paper motivates fixed-pattern GPM on *dynamic* data graphs — social
networks and transaction graphs evolve while the watched patterns stay the
same.  Recounting from scratch per update wastes the accelerator;
:class:`IncrementalGPM` instead maintains the count under edge insertions
and deletions by counting only embeddings that *use the updated edge*.

An edit of the pair ``(u, v)`` creates or destroys only the matches that
map some pattern pair ``(a, b)`` onto it: a pattern edge, or, for an
induced plan, also a non-edge.  :func:`edge_delta` counts exactly those,
per orbit of such pairs under the pattern's automorphisms
(:func:`~repro.patterns.plan.anchored_plans`): the plan ordered ``(a, b,
…)`` is entered at level 1 from the two-vertex seed ``[[u, v]]`` — a
bound-variable join in TrieJax's sense — and runs its compiled kernel on
the whole snapshot, with no symmetry restrictions.  The edge orbits'
weighted counts, less those of an induced plan's non-edge orbits, are
the change in matches, and over ``|Aut(P)|`` the change in embeddings:
exact, and as local as the kernel's walk from the seed.  3CF is one run
of one level, DIA two runs of two levels.  The service patches its
cached counts with the same function (``QueryService.dynamic_session``).

The graph is held as one immutable :class:`CSRGraph` snapshot: a write
replaces it by ``with_edge`` / ``without_edge`` (an array splice) that
carries the kernel's derived indexes — adjacency bitset, edge keys, row
word counts — through the same edit, so the seeded runs find them built.
A write therefore costs what the edge's neighbourhood costs plus a few
O(E) memcpys, with no per-edge Python object; the pure-Python reference
executor is not used here, which leaves it an independent oracle for the
maintained count.
"""

from __future__ import annotations

import numpy as np

from ..engine.codegen import ROOT_CHUNK
from ..engine.functional import FrontierExpander, sweep_frontier
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from ..patterns.plan import MatchingPlan, anchored_plans, build_plan

__all__ = ["IncrementalGPM", "edge_delta"]


def _count(graph: CSRGraph, plan: MatchingPlan, seed=None) -> int:
    """Embeddings of ``plan`` in ``graph``, a chunk of roots at a time,
    below the level-k ``seed`` frontier (default: every root)."""
    expander = FrontierExpander(graph, plan)
    if seed is None:
        seed = expander.roots()
    elif seed.shape[1] > plan.stop_level:  # the seed rows are matches
        return seed.shape[0]
    return sweep_frontier(expander, seed, ROOT_CHUNK)[-1].count


def edge_delta(graph: CSRGraph, u: int, v: int, plan: MatchingPlan) -> int:
    """Count of the graph with the edge ``(u, v)`` less the count of the
    graph without it: the delta of an insert, whose negation is a
    removal's.

    ``graph`` is either snapshot, before or after the edit.  Below the
    seed no level reads the adjacency of ``u`` and ``v`` themselves: a
    candidate equal to either is dropped by a probe of the other (no self
    loops) or by distinctness, as the plan has it.  So each anchored count
    is the same on both, and the non-edge orbits of an induced plan, whose
    matches the insert destroys, are counted on the same snapshot.
    """
    automorphisms, anchors = anchored_plans(plan.pattern, plan.induced)
    labels = graph.labels
    matches = 0
    for anchor in anchors:
        seed = [(u, v), (v, u)] if anchor.mirrored else [(u, v)]
        if labels is not None and anchor.labels is not None:
            seed = [
                (x, y) for x, y in seed
                if (labels[x], labels[y]) == anchor.labels
            ]
        if seed:
            m = _count(graph, anchor.plan, np.array(seed, dtype=np.int32))
            matches += anchor.weight * m if anchor.edge else -anchor.weight * m
    delta, rest = divmod(matches, automorphisms)
    assert not rest, f"{matches} matches over {automorphisms} automorphisms"
    return delta


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
        after = self._graph.without_edge(u, v)
        if after is self._graph:
            return 0
        return self._commit(
            after, u, v, False, -edge_delta(after, u, v, self.plan)
        )

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """The current graph: an immutable CSR snapshot, returned without a
        copy (labels, ``name`` and ``base_address`` are the input graph's)."""
        return self._graph
