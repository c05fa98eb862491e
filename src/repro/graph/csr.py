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
import struct
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence,
)

import numpy as np

from ..errors import GraphFormatError

__all__ = ["CSRGraph", "Edit", "edges_to_csr", "gather_spans"]


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


class Edit(NamedTuple):
    """One edge edit of a :class:`CSRGraph`, as :meth:`CSRGraph.derived`
    splices hand it on: the pair ``lo < hi``, and the slots ``p`` and ``q``
    of ``hi`` in row ``lo`` and of ``lo`` in row ``hi`` in the ``indices``
    before the edit (where they go for an ``insert``)."""

    lo: int
    hi: int
    p: int
    q: int
    insert: bool

    def splice(self, values: np.ndarray, first, second) -> np.ndarray:
        """``values``, aligned with ``indices``, with ``first`` put in at
        (removed from) slot ``p`` and ``second`` at ``q``: ``p <= q``, so
        row ``lo`` lies wholly before row ``hi``."""
        p, q = self.p, self.q
        if self.insert:
            new = np.array([first, second], dtype=values.dtype)
            parts = (values[:p], new[:1], values[p:q], new[1:], values[q:])
        else:
            parts = (values[:p], values[p + 1 : q], values[q + 1 :])
        return np.concatenate(parts)


#: per lane, the two odd multipliers of its key mix (splitmix64's and
#: murmur3's), so each lane maps keys to values one to one
_LANES = ((0x9E3779B97F4A7C15, 0xFF51AFD7ED558CCD),
          (0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_FIRST, _SECOND = np.array(_LANES, dtype=np.uint64).T[..., None]
_MASK = (1 << 64) - 1
_PRINT_CHUNK = 1 << 16  #: directed edges mixed per pass (bounds scratch)


def _fresh_print(graph: "CSRGraph") -> tuple:
    """The ``fingerprint`` entry from one pass: each lane's sum of its mix
    of every directed edge key."""
    n, indptr, indices = graph.num_vertices, graph.indptr, graph.indices
    sums = np.zeros(2, dtype=np.uint64)
    for s in range(0, indices.size, _PRINT_CHUNK):
        e = min(s + _PRINT_CHUNK, indices.size)
        # the rows owning slots [s, e), each clipped to the window
        r0 = int(np.searchsorted(indptr, s, "right")) - 1
        r1 = int(np.searchsorted(indptr, e, "left"))
        rows = np.arange(r0 * n, r1 * n, n, dtype=np.int64)
        keys = np.repeat(rows, np.diff(np.clip(indptr[r0 : r1 + 1], s, e)))
        keys += indices[s:e]
        z = np.multiply(keys.view(np.uint64), _FIRST)  # one row per lane
        z ^= z >> 32
        z *= _SECOND
        z ^= z >> 29
        sums += z.sum(axis=1, dtype=np.uint64)
    labels = b""
    if graph.labels is not None:
        digest = hashlib.blake2b(graph.labels.tobytes(), digest_size=16)
        labels = b"labels" + digest.digest()
    return _finish(n, int(sums[0]), int(sums[1]), labels)


def _finish(n: int, a: int, b: int, labels: bytes) -> tuple:
    """The ``fingerprint`` entry: lane sums, labels' digest, the print."""
    a, b = a & _MASK, b & _MASK
    head = struct.pack("<qQQ", n, a, b)
    digest = hashlib.blake2b(head + labels, digest_size=16).hexdigest()
    return (a, b), labels, digest


def _splice_print(old: tuple, graph: "CSRGraph", edit: Edit) -> tuple:
    """``old`` with the edit's two keys' mixes added (removed), each mixed
    as :func:`_fresh_print` mixes every key."""
    lanes, labels, _ = old
    lanes, n = list(lanes), graph.num_vertices
    for key in (edit.lo * n + edit.hi, edit.hi * n + edit.lo):
        for lane, (first, second) in enumerate(_LANES):
            z = key * first & _MASK
            z = (z ^ z >> 32) * second & _MASK
            lanes[lane] += (z ^ z >> 29) * (1 if edit.insert else -1)
    return _finish(n, *lanes, labels)


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
    #: the splice each derived index was registered with, if any
    _splices: dict = field(
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

    def derived(
        self, key: Hashable, build: Callable[..., Any], *args,
        splice: Callable[[Any, "CSRGraph", Edit], Any] | None = None,
    ) -> Any:
        """``build(*args)`` memoised on this instance under ``key``.

        For indexes that are pure functions of ``indptr``/``indices`` (edge
        keys, adjacency bitset, row word counts): built by the first query,
        reused by later ones, never compared or (but for the fingerprint's
        integers) pickled.  Threads racing on a cold key both build equal
        values; last wins.
        ``splice(value, graph, edit)`` carries the index through an edge
        edit: :meth:`with_edge` and :meth:`without_edge` hand it the edited
        graph and the :class:`Edit`, and drop every index registered
        without one, to be rebuilt on demand.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(*args)
            if splice is not None:
                self._splices[key] = splice
            return value

    def __getstate__(self) -> dict:
        """The arrays and the fingerprint, never an index: the print is a
        few integers, so a receiver (a shard registering its slice) reads
        it instead of re-hashing, and splices it through later edits."""
        fp = self._derived.get("fingerprint")
        keep = {} if fp is None else {"fingerprint": fp}
        splices = {key: _splice_print for key in keep}
        return {**self.__dict__, "_derived": keep, "_splices": splices}

    def fingerprint(self) -> str:
        """Content hash of ``n``, the multiset of directed edge keys
        ``u·n+v`` and the labels (equal arrays, equal print; ``name`` and
        ``base_address`` are excluded).  Each of two 64-bit lanes is the
        wrapping sum of an independent bijective mix of every key (an
        incremental multiset hash, Clarke et al., ASIACRYPT 2003); blake2b
        digests ``n``, the labels and the two sums to 128 bits.  The
        service keys its result cache on it, so an edge edit invalidates
        cached counts.  Built once per instance (a :meth:`derived` entry)
        and spliced in O(1) by :meth:`with_edge`/:meth:`without_edge`,
        which add or remove the two keys' mixes: no pass over E.  Not
        cryptographic (a chosen collision is cheap): modelling each mix as
        a random function, two distinct graphs collide by accident with
        probability about 2^-128, and some pair among q prints in use with
        probability below q²/2^129.
        """
        return self.derived(
            "fingerprint", _fresh_print, self, splice=_splice_print
        )[-1]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < int(v):
                    yield (u, int(v))

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

    def _spliced(self, u: int, v: int, insert: bool) -> "CSRGraph":
        """This graph with edge ``(u, v)`` present (``insert``) or absent.

        Rows are sorted, so the edge's two slots are two binary searches and
        the new arrays are slice copies around them — an O(E) memcpy with no
        per-edge Python object.  Every derived index registered with a
        splice is carried through the same :class:`Edit`; the rest are
        dropped.  Returns ``self`` when nothing changes.
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
        edit = Edit(lo, hi, p, q, insert)
        indptr = self.indptr.copy()
        step = 1 if insert else -1
        indptr[lo + 1 :] += step
        indptr[hi + 1 :] += step
        graph = CSRGraph(
            indptr=indptr,
            indices=edit.splice(ind, hi, lo),
            name=self.name,
            base_address=self.base_address,
            labels=self.labels,
        )
        # a copy of the items: another thread may be filling a cold key
        for key, splice in list(self._splices.items()):
            graph._derived[key] = splice(self._derived[key], graph, edit)
            graph._splices[key] = splice
        return graph

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
