"""Graph traversal used by incremental counting and cluster sharding."""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = ["neighborhood"]


def neighborhood(graph: CSRGraph, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted IDs of the vertices within ``hops`` hops of ``seeds``
    (level-synchronous BFS, one row gather and one mask pass per hop)."""
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[seeds] = True
    frontier = np.flatnonzero(visited)
    reached = frontier.size
    for _ in range(hops):
        if frontier.size == 0 or reached == graph.num_vertices:
            break
        nbrs, _ = graph.gather_rows(frontier)
        new = np.zeros(graph.num_vertices, dtype=bool)
        new[nbrs] = True
        new &= ~visited
        frontier = np.flatnonzero(new)
        visited |= new
        reached += frontier.size
    return np.flatnonzero(visited)
