"""Bulk (frontier-at-a-time) set-operation kernels.

The per-task kernels in :mod:`repro.setops.reference` intersect one pair of
sorted sets; these kernels process *thousands of tasks in one NumPy call*,
which is what makes the ``batched`` execution engine fast.  The key
representation is the packed edge-key array: an undirected CSR graph whose
rows are sorted yields ``u * n + v`` keys that are globally sorted, so any
batch of adjacency queries becomes one ``searchsorted`` — a bulk
intersection/difference is then a boolean mask over a gathered candidate
frontier (the set-centric formulation SISA builds its ISA around).

All kernels are pure functions of their inputs: no graph mutation, no
timing.  The temporal layer charges cycles for them separately.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "edge_keys",
    "bulk_membership",
    "bulk_adjacency",
    "packed_adjacency",
    "bulk_adjacency_bits",
    "row_spans",
    "gather_spans",
    "gather_rows",
]

#: largest vertex count for which a packed adjacency bitset is built
#: (V * V / 8 bytes — 32 MB at the limit); beyond it adjacency queries
#: fall back to binary search over the edge-key array
PACKED_ADJ_MAX_VERTICES = 16384


def edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted ``u * n + v`` key per directed CSR edge (one bulk probe set)."""
    n = np.int64(graph.num_vertices)
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    return src * n + graph.indices.astype(np.int64)


def bulk_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: is each ``needles[i]`` present in sorted ``haystack``?"""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    hit = pos < haystack.size
    pos[~hit] = 0  # clamp in place: out-of-range probes re-checked below
    hit &= haystack[pos] == needles
    return hit


def bulk_adjacency(
    keys: np.ndarray,
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Boolean mask: is there an edge ``(u[i], v[i])``?

    ``keys`` must come from :func:`edge_keys` of the same graph.
    """
    # one fused multiply into an int64 probe array, then add in place —
    # avoids two astype copies on the (large) u/v operands
    probe = np.multiply(u, np.int64(num_vertices), dtype=np.int64)
    probe += v
    return bulk_membership(keys, probe)


def packed_adjacency(
    graph: CSRGraph, max_vertices: int = PACKED_ADJ_MAX_VERTICES
) -> np.ndarray | None:
    """Bit-packed adjacency matrix, or ``None`` if the graph is too large.

    Row ``u``, bit ``v`` (little-endian within each byte) says whether the
    edge ``(u, v)`` exists.  One byte gather plus a shift answers an
    adjacency query — far cheaper than the ``O(log E)`` probe of
    :func:`bulk_adjacency` — at ``V²/8`` bytes of memory.
    """
    n = graph.num_vertices
    if n == 0 or n > max_vertices:
        return None
    bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    # pack in row chunks so the dense staging buffer stays small
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dense = np.zeros((hi - lo, n), dtype=bool)
        span = slice(graph.indptr[lo], graph.indptr[hi])
        rows = np.repeat(
            np.arange(lo, hi, dtype=np.int64),
            graph.degrees[lo:hi],
        )
        dense[rows - lo, graph.indices[span]] = True
        bits[lo:hi] = np.packbits(dense, axis=1, bitorder="little")
    return bits


def bulk_adjacency_bits(
    bits: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Boolean mask for edges ``(u[i], v[i])`` via a packed bitset."""
    sub = v & 7
    byte = bits[u, v >> 3]
    return (byte >> sub) & 1 != 0


def row_spans(
    graph: CSRGraph,
    keys: np.ndarray,
    vertices: np.ndarray,
    upper: np.ndarray | None = None,
    lower: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR span ``[lo, hi)`` of each row's values in ``(lower, upper)``.

    Rows are sorted, so a per-row bound is a *rank*: one binary search in
    ``keys`` (this graph's :func:`edge_keys`) replaces a compare against
    every gathered neighbour.  ``upper``/``lower`` hold one exclusive bound
    per vertex (None = unbounded); any integer is accepted and an empty
    interval yields ``lo == hi``.
    """
    lo = graph.indptr[vertices]
    hi = lo + graph.degrees[vertices]
    # int64 keys: an int32 vertex times n wraps from n = 46341 on
    base = np.multiply(vertices, np.int64(graph.num_vertices), dtype=np.int64)
    if upper is not None:
        np.minimum(hi, np.searchsorted(keys, base + upper), out=hi)
    if lower is not None:
        np.maximum(
            lo, np.searchsorted(keys, base + lower, side="right"), out=lo
        )
    return lo, np.maximum(hi, lo, out=hi)


def gather_spans(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the slices ``values[lo[i]:hi[i]]`` in one gather;
    returns them with ``owner[j]``, the ``i`` whose slice holds element j."""
    deg = hi - lo
    total = int(deg.sum())
    owner = np.repeat(np.arange(deg.size, dtype=np.int64), deg)
    if total == 0:
        return values[:0], owner
    # each output element's position is its running index shifted by
    # (span start − span output offset), one repeat instead of two
    offsets = np.zeros(deg.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=offsets[1:])
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(lo - offsets, deg)
    return values[pos], owner


def gather_rows(
    graph: CSRGraph,
    vertices: np.ndarray,
    lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the neighbour rows of ``vertices`` in one gather.

    Returns ``(values, owner)`` where ``values`` is the concatenation of
    ``graph.neighbors(vertices[i])`` for each ``i`` in order and
    ``owner[j]`` is the index ``i`` whose row produced ``values[j]``.
    This is the grouped neighbour gather every frontier expansion starts
    from.  With ``lo``/``hi`` (from :func:`row_spans`) only that span of
    each row is gathered: the neighbours a bound discards never materialise.
    """
    if lo is None:
        vertices = np.asarray(vertices)
        lo = graph.indptr[vertices]
        hi = lo + graph.degrees[vertices]
    return gather_spans(graph.indices, lo, hi)
