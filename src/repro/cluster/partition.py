"""Graph sharding: contiguous vertex ranges, halos, induced subgraphs.

The cluster partitions a registered graph by **vertex range**: shard *i*
owns the contiguous global range ``[lo_i, hi_i)`` (cut points balance the
degree mass, the same idea as the accelerator's degree-balanced root
partitioning), and every embedding is attributed to its *root* vertex —
so a shard answers exactly the subquery "embeddings rooted in my range".

Correctness rests on two properties:

**Halo sufficiency.**  With the plans' level-by-level expansion, a vertex
bound at level *L* is at most *L* hops from the root, so replicating the
``halo_hops``-hop neighbourhood around the owned range gives each shard
every vertex (and every adjacency row) any of its search trees can touch,
provided ``halo_hops >= plan.stop_level``.  The coordinator validates
that inequality per query.

**Order-preserving compaction.**  Shard-local IDs are assigned by
*monotone* compaction of the sorted kept-vertex set, so ``u < v``
globally iff ``local(u) < local(v)``.  Symmetry-breaking filters compare
vertex IDs; preserving their order means a shard's per-root counts equal
the global run's per-root counts, and summing owned-root counts over
shards counts every embedding exactly once — the equivalence tests pin
this down against the single-node engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ClusterError
from ..graph.algorithms import neighborhood
from ..graph.csr import CSRGraph

__all__ = [
    "ShardSpec",
    "contiguous_cuts",
    "halo_vertices",
    "induced_subgraph",
    "make_shards",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a partitioned graph (owned range + halo subgraph)."""

    index: int
    num_shards: int
    #: owned global vertex range ``[lo, hi)``
    lo: int
    hi: int
    #: sorted global IDs present in the subgraph (owned ∪ halo)
    vertices: np.ndarray
    #: the induced subgraph in shard-local IDs
    graph: CSRGraph
    #: owned range in local IDs — contiguous, because compaction is
    #: monotone and the owned global range has no gaps
    local_lo: int
    local_hi: int
    halo_hops: int

    @property
    def owned(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSpec({self.index}/{self.num_shards}, "
            f"owns [{self.lo}, {self.hi}), "
            f"{self.graph.num_vertices} vertices incl. halo)"
        )


def contiguous_cuts(
    degrees: np.ndarray, num_shards: int
) -> list[tuple[int, int]]:
    """Degree-balanced contiguous cut of ``[0, n)`` into ``num_shards``.

    Cut points land where the cumulative degree mass crosses each
    ``k/num_shards`` quantile (each vertex also carries +1 weight so
    isolated vertices still spread out).  Shards may come back empty on
    tiny graphs — callers must tolerate ``lo == hi``.
    """
    if num_shards < 1:
        raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
    n = int(degrees.size)
    weights = np.asarray(degrees, dtype=np.int64) + 1
    cum = np.cumsum(weights)
    total = int(cum[-1]) if n else 0
    bounds = [0]
    for k in range(1, num_shards):
        target = total * k / num_shards
        cut = int(np.searchsorted(cum, target, side="left"))
        bounds.append(max(cut, bounds[-1]))
    bounds.append(n)
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def halo_vertices(
    graph: CSRGraph, lo: int, hi: int, hops: int
) -> np.ndarray:
    """Sorted global IDs within ``hops`` hops of the owned ``[lo, hi)``."""
    return neighborhood(graph, np.arange(lo, hi, dtype=np.int64), hops)


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray, name: str
) -> CSRGraph:
    """The subgraph induced on ``vertices``, in compacted local IDs
    (:meth:`CSRGraph.induced_subgraph` under the shard's name)."""
    return graph.induced_subgraph(vertices, name=name)


def make_shards(
    graph: CSRGraph, num_shards: int, halo_hops: int
) -> list[ShardSpec]:
    """Partition ``graph`` into ``num_shards`` range-owned shard specs."""
    if halo_hops < 1:
        raise ClusterError(f"halo_hops must be >= 1, got {halo_hops}")
    specs = []
    for index, (lo, hi) in enumerate(
        contiguous_cuts(graph.degrees, num_shards)
    ):
        vertices = halo_vertices(graph, lo, hi, halo_hops)
        sub = induced_subgraph(
            graph, vertices, name=f"{graph.name}:shard{index}"
        )
        local_lo = int(np.searchsorted(vertices, lo))
        local_hi = int(np.searchsorted(vertices, hi))
        specs.append(
            ShardSpec(
                index=index,
                num_shards=num_shards,
                lo=int(lo),
                hi=int(hi),
                vertices=vertices,
                graph=sub,
                local_lo=local_lo,
                local_hi=local_hi,
                halo_hops=halo_hops,
            )
        )
    return specs
