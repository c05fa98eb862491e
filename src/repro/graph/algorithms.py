"""Classic graph algorithms used by GPM preprocessing and analysis.

GPM systems lean on a small toolbox of structural algorithms: degeneracy
(k-core) orderings bound clique-enumeration work, connected components let
workloads skip isolated fragments, and clustering coefficients characterise
how triangle-dense a workload will be.  All are implemented from scratch on
the CSR representation.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .csr import CSRGraph

__all__ = [
    "core_numbers",
    "degeneracy_order",
    "degeneracy",
    "k_core",
    "connected_components",
    "largest_component",
    "neighborhood",
    "global_clustering",
    "relabeled_by_degeneracy",
]


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """Core number of every vertex (Matula–Beck peeling, O(m))."""
    n = graph.num_vertices
    degree = graph.degrees.copy()
    max_deg = int(degree.max()) if n else 0
    # bucket sort vertices by current degree
    bins = [0] * (max_deg + 2)
    for d in degree:
        bins[int(d)] += 1
    starts = [0] * (max_deg + 2)
    acc = 0
    for d in range(max_deg + 1):
        starts[d] = acc
        acc += bins[d]
    pos = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    fill = starts.copy()
    for v in range(n):
        d = int(degree[v])
        pos[v] = fill[d]
        order[fill[d]] = v
        fill[d] += 1
    core = degree.astype(np.int64).copy()
    cur_deg = degree.astype(np.int64).copy()
    bin_start = starts.copy()
    for i in range(n):
        v = int(order[i])
        core[v] = cur_deg[v]
        for w in graph.neighbors(v):
            w = int(w)
            if cur_deg[w] > cur_deg[v]:
                dw = int(cur_deg[w])
                # swap w with the first vertex of its bin, shrink the bin
                first = bin_start[dw]
                u = int(order[first])
                if u != w:
                    order[first], order[pos[w]] = w, u
                    pos[u], pos[w] = pos[w], first
                bin_start[dw] += 1
                cur_deg[w] -= 1
    return core


def degeneracy_order(graph: CSRGraph) -> np.ndarray:
    """Vertices in a degeneracy (smallest-last peeling) order."""
    n = graph.num_vertices
    core = core_numbers(graph)
    # peeling order: stable sort by (core number, degree)
    return np.lexsort((graph.degrees, core)).astype(np.int64)


def degeneracy(graph: CSRGraph) -> int:
    """The graph's degeneracy = max core number."""
    if graph.num_vertices == 0:
        return 0
    return int(core_numbers(graph).max())


def k_core(graph: CSRGraph, k: int) -> CSRGraph:
    """Induced subgraph on vertices with core number ≥ k."""
    core = core_numbers(graph)
    keep = np.flatnonzero(core >= k)
    return graph.induced_subgraph(keep)


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per vertex (BFS labelling)."""
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = next_id
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                w = int(w)
                if comp[w] == -1:
                    comp[w] = next_id
                    queue.append(w)
        next_id += 1
    return comp


def largest_component(graph: CSRGraph) -> CSRGraph:
    """Induced subgraph of the largest connected component."""
    comp = connected_components(graph)
    if comp.size == 0:
        return graph
    counts = np.bincount(comp)
    big = int(np.argmax(counts))
    return graph.induced_subgraph(np.flatnonzero(comp == big))


def neighborhood(graph: CSRGraph, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted IDs of the vertices within ``hops`` hops of ``seeds``
    (level-synchronous BFS, one row gather per hop)."""
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[seeds] = True
    frontier = np.asarray(seeds, dtype=np.int64)
    for _ in range(hops):
        if frontier.size == 0:
            break
        nbrs, _ = graph.gather_rows(frontier)
        frontier = np.unique(nbrs[~visited[nbrs]])
        visited[frontier] = True
    return np.flatnonzero(visited)


def global_clustering(graph: CSRGraph) -> float:
    """Transitivity: 3 × triangles / wedges (0.0 for wedge-free graphs)."""
    from ..patterns.executor import count_embeddings
    from ..patterns.pattern import PATTERNS
    from ..patterns.plan import build_plan

    triangles = count_embeddings(
        graph, build_plan(PATTERNS["3CF"])
    ).embeddings
    deg = graph.degrees.astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * triangles / wedges


def relabeled_by_degeneracy(graph: CSRGraph) -> CSRGraph:
    """Relabel so vertex IDs follow the reverse degeneracy order.

    Clique plans with ``u_{i+1} < u_i`` restrictions then expand each vertex
    against only its ~degeneracy() later neighbours — the standard bound for
    clique enumeration.
    """
    order = degeneracy_order(graph)[::-1]
    rank = np.empty_like(order)
    rank[order] = np.arange(graph.num_vertices)
    edges = [
        (int(rank[u]), int(rank[v])) for u, v in graph.edges()
    ]
    out = CSRGraph.from_edges(
        graph.num_vertices, edges, name=f"{graph.name}-degen"
    )
    out.base_address = graph.base_address
    return out
