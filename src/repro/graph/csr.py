"""Compressed Sparse Row (CSR) graph representation.

All of X-SET's set-centric processing operates on *sorted* adjacency lists:
the order-aware SIU exploits exactly this property.  :class:`CSRGraph` is the
canonical in-memory format for the whole library — undirected simple graphs
stored as two NumPy arrays (``indptr``, ``indices``) with every neighbour row
sorted ascending.

The class also carries the address-space model used by the memory-hierarchy
simulator: each vertex's neighbour list occupies a contiguous region of a
flat 32-bit word address space, so a cache line of ``line_words`` words holds
that many consecutive neighbour IDs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import GraphFormatError

__all__ = ["CSRGraph", "edges_to_csr", "gather_spans"]


def _as_edge_array(
    edges: Iterable[tuple[int, int]] | np.ndarray,
) -> np.ndarray:
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError("edges must be an iterable of (u, v) pairs")
    return arr


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


def edges_to_csr(
    num_vertices: int, edges: Iterable[tuple[int, int]] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build sorted CSR arrays for an *undirected* simple graph.

    ``edges`` is an iterable of pairs or an ``(m, 2)`` integer array (taken
    as is).  Self-loops and duplicate edges are removed.  Returns
    ``(indptr, indices)`` where ``indptr`` has length ``num_vertices + 1``.
    """
    arr = _as_edge_array(edges)
    if arr.size:
        if arr.min() < 0 or arr.max() >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint out of range [0, {num_vertices})"
            )
        arr = arr[arr[:, 0] != arr[:, 1]]  # drop self loops
    if arr.size == 0:
        return (
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
        )
    # Symmetrize, then deduplicate via a packed 64-bit key.
    both = np.concatenate([arr, arr[:, ::-1]], axis=0)
    key = both[:, 0] * np.int64(num_vertices) + both[:, 1]
    key = np.unique(key)
    src = (key // num_vertices).astype(np.int64)
    dst = (key % num_vertices).astype(np.int32)
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # keys were sorted by (src, dst) so dst is already row-sorted
    return indptr, dst


@dataclass
class CSRGraph:
    """An undirected simple graph in sorted-CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v`` spans
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of neighbour IDs, sorted ascending within each row.
    name:
        Optional human-readable dataset name (used in reports).
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = "graph"
    #: base word address of the adjacency array in the simulated address space
    base_address: int = 0x1000_0000
    #: optional per-vertex labels (int array of length n) for labelled GPM
    labels: np.ndarray | None = None
    _degrees: np.ndarray = field(init=False, repr=False)
    #: indexes derived from the (immutable) CSR arrays, see :meth:`derived`
    _derived: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphFormatError("indptr must be a 1-D array of length n+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphFormatError("indptr does not span indices")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.indptr.size - 1,):
                raise GraphFormatError("labels must have one entry per vertex")
        self._degrees = np.diff(self.indptr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph from an undirected edge list or ``(m, 2)`` array
        (dedup + symmetrize)."""
        indptr, indices = edges_to_csr(num_vertices, edges)
        return cls(indptr=indptr, indices=indices, name=name)

    @classmethod
    def empty(cls, num_vertices: int, name: str = "empty") -> "CSRGraph":
        """A graph with ``num_vertices`` isolated vertices."""
        return cls(
            indptr=np.zeros(num_vertices + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
            name=name,
        )

    # -- basic queries -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in CSR)."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour row of ``v`` (a zero-copy view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def gather_rows(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour rows of ``vertices`` concatenated, and per element
        the index into ``vertices`` of its row (:func:`gather_spans`)."""
        lo = self.indptr[vertices]
        return gather_spans(self.indices, lo, lo + self._degrees[vertices])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def derived(self, key: Hashable, build: Callable[..., Any], *args) -> Any:
        """``build(*args)`` memoised on this instance under ``key``.

        For indexes that are pure functions of ``indptr``/``indices`` (edge
        keys, adjacency bitset, row word counts): built by the first query,
        reused by later ones, never pickled, fingerprinted or compared.
        Threads racing on a cold key both build equal values; last wins.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(*args)
            return value

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_derived": {}}

    def fingerprint(self) -> str:
        """Stable content hash of the graph's structure and labels.

        Two graphs share a fingerprint iff they have identical ``indptr``,
        ``indices`` and ``labels`` arrays — ``name`` and ``base_address``
        are presentation/simulation concerns and deliberately excluded.
        The service layer keys its result cache on this value, so any edge
        edit (which changes the CSR arrays) invalidates cached counts.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(np.int64(self.num_vertices).tobytes())
        h.update(np.ascontiguousarray(self.indptr).tobytes())
        h.update(np.ascontiguousarray(self.indices).tobytes())
        if self.labels is not None:
            h.update(b"labels")
            h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < int(v):
                    yield (u, int(v))

    # -- address-space model ----------------------------------------------

    def row_address(self, v: int) -> int:
        """Word address of vertex ``v``'s neighbour row."""
        return self.base_address + int(self.indptr[v])

    def row_extent(self, v: int) -> tuple[int, int]:
        """``(word address, length in words)`` of the neighbour row."""
        return self.row_address(v), self.degree(v)

    # -- transforms ---------------------------------------------------------

    def with_labels(self, labels) -> "CSRGraph":
        """Copy of this graph carrying per-vertex labels (shares arrays)."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            name=self.name,
            base_address=self.base_address,
            labels=np.asarray(labels, dtype=np.int64),
        )

    def label_of(self, v: int) -> int | None:
        """Vertex ``v``'s label, or None for unlabelled graphs."""
        if self.labels is None:
            return None
        return int(self.labels[v])

    def _spliced(self, u: int, v: int, insert: bool) -> "CSRGraph":
        """This graph with edge ``(u, v)`` present (``insert``) or absent.

        Rows are sorted, so the edge's two slots are two binary searches and
        the new arrays are slice copies around them — an O(E) memcpy with no
        per-edge Python object.  Returns ``self`` when nothing changes.
        """
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphFormatError("self loops are not allowed")
        lo, hi = (u, v) if u < v else (v, u)
        ind = self.indices
        p = int(self.indptr[lo] + np.searchsorted(self.neighbors(lo), hi))
        q = int(self.indptr[hi] + np.searchsorted(self.neighbors(hi), lo))
        present = p < self.indptr[lo + 1] and ind[p] == hi
        if present == insert:
            return self
        indptr = self.indptr.copy()
        if insert:  # p <= q: row lo lies wholly before row hi
            new = np.array([hi, lo], dtype=ind.dtype)
            parts = (ind[:p], new[:1], ind[p:q], new[1:], ind[q:])
            step = 1
        else:
            parts = (ind[:p], ind[p + 1 : q], ind[q + 1 :])
            step = -1
        indptr[lo + 1 :] += step
        indptr[hi + 1 :] += step
        return CSRGraph(
            indptr=indptr,
            indices=np.concatenate(parts),
            name=self.name,
            base_address=self.base_address,
            labels=self.labels,
        )

    def with_edge(self, u: int, v: int) -> "CSRGraph":
        """Copy of this graph with the undirected edge ``(u, v)`` added.

        Labels, ``name`` and ``base_address`` are carried; returns ``self``
        if the edge is already there.  Raises :class:`GraphFormatError` on
        a self loop or an endpoint out of range.
        """
        return self._spliced(u, v, True)

    def without_edge(self, u: int, v: int) -> "CSRGraph":
        """Copy of this graph with the undirected edge ``(u, v)`` removed
        (``self`` if it is absent); see :meth:`with_edge`."""
        return self._spliced(u, v, False)

    def relabeled_by_degree(self, descending: bool = True) -> "CSRGraph":
        """Return an isomorphic copy with vertices relabelled by degree.

        Degree-descending relabelling is the standard GPM preprocessing step:
        symmetry-breaking restrictions of the form ``u_i < u_j`` then prune
        high-degree vertices early, shrinking the search tree.
        """
        n = self.num_vertices
        order = np.argsort(-self._degrees if descending else self._degrees,
                           kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        # every directed edge under its new IDs; one sort of the packed
        # (src, dst) keys puts rows in order and each row ascending
        key = np.repeat(rank, self._degrees) * np.int64(n) + rank[self.indices]
        key.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees[order], out=indptr[1:])
        labels = None
        if self.labels is not None:
            labels = np.empty_like(self.labels)
            labels[rank] = self.labels
        return CSRGraph(
            indptr=indptr,
            indices=key % n,
            name=f"{self.name}-degsorted",
            base_address=self.base_address,
            labels=labels,
        )

    def induced_subgraph(
        self, vertices: Sequence[int] | np.ndarray, name: str | None = None
    ) -> "CSRGraph":
        """Induced subgraph on ``vertices`` with IDs compacted to 0..k-1.

        Compaction is monotone over the sorted vertex set, so adjacency
        rows stay sorted and ``u < v`` holds locally iff it holds here;
        labels follow their vertices.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        # rank table: local ID of each kept vertex, -1 elsewhere
        rank = np.full(self.num_vertices, -1, dtype=np.int32)
        rank[vertices] = np.arange(vertices.size, dtype=np.int32)
        nbrs, row_of = self.gather_rows(vertices)
        local = rank[nbrs]
        inside = local >= 0
        indptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(row_of[inside], minlength=vertices.size),
            out=indptr[1:],
        )
        return CSRGraph(
            indptr=indptr,
            indices=local[inside],
            name=f"{self.name}-induced" if name is None else name,
            labels=None if self.labels is None else self.labels[vertices],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges})"
        )
