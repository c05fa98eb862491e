"""Edge-list I/O in the SNAP text format the paper's datasets ship in.

Lines are ``u<ws>v`` pairs; ``#`` comments and blank lines are ignored;
graphs are treated as undirected simple graphs (duplicates and self-loops
dropped), matching the preprocessing GPM systems apply to the SNAP files.

Malformed inputs fail loudly with a typed
:class:`~repro.errors.GraphFormatError` carrying the offending line
number: negative vertex ids, files that declare vertex/edge counts in
their header comment (SNAP's ``# Nodes: N Edges: M`` or this module's
own ``# name: N vertices, M edges``) that contradict the edges actually
present, and files with no edges at all.  A truncated download that
silently loads as a smaller graph corrupts every downstream count — the
resilience layer's cross-checks can catch a corrupted *datapath*, but
only the loader can catch corrupted *input*.
"""

from __future__ import annotations

import gzip
import re
from pathlib import Path

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = ["load_edge_list", "save_edge_list"]

#: SNAP dataset convention: ``# Nodes: 7115 Edges: 103689``
_HEADER_SNAP = re.compile(
    r"nodes:\s*(\d+)\s+edges:\s*(\d+)", re.IGNORECASE
)
#: this module's own save format: ``# name: 7115 vertices, 100762 edges``
_HEADER_SAVE = re.compile(
    r":\s*(\d+)\s+vertices,\s*(\d+)\s+edges", re.IGNORECASE
)


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _parse_header(line: str) -> tuple[int, int] | None:
    """Declared ``(vertices, edges)`` from a comment line, if present."""
    m = _HEADER_SNAP.search(line) or _HEADER_SAVE.search(line)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2))


def load_edge_list(path: str | Path, name: str | None = None) -> CSRGraph:
    """Load an undirected graph from a (possibly gzipped) edge-list file.

    Vertex IDs are compacted to the dense range ``0..n-1`` in first-seen
    order of the sorted original IDs, the convention GPM systems use.

    Raises :class:`~repro.errors.GraphFormatError` (with the line number
    where applicable) on negative or non-integer vertex ids, on a header
    that declares counts inconsistent with the file's own edges, and on
    files containing no edges.
    """
    path = Path(path)
    raw: list[tuple[int, int]] = []
    declared: tuple[int, int] | None = None
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                if declared is None and line:
                    declared = _parse_header(line)
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{lineno}: negative vertex id in "
                    f"({u}, {v}); ids must be >= 0"
                )
            raw.append((u, v))
    if not raw:
        raise GraphFormatError(
            f"{path}: no edges found (empty or comment-only edge list)"
        )
    ids = sorted({u for e in raw for u in e})
    if declared is not None:
        decl_vertices, decl_edges = declared
        # the unique undirected simple edges the file actually contains,
        # the same normalisation CSRGraph.from_edges applies
        unique = {
            (u, v) if u < v else (v, u) for u, v in raw if u != v
        }
        if len(unique) != decl_edges:
            raise GraphFormatError(
                f"{path}: header declares {decl_edges} edges but the "
                f"file contains {len(unique)} unique undirected edges "
                f"(truncated or corrupted download?)"
            )
        if decl_vertices < len(ids):
            raise GraphFormatError(
                f"{path}: header declares {decl_vertices} vertices but "
                f"the edges reference {len(ids)} distinct ids"
            )
    remap = {old: new for new, old in enumerate(ids)}
    edges = [(remap[u], remap[v]) for u, v in raw]
    return CSRGraph.from_edges(len(ids), edges, name=name or path.stem)


def save_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write each undirected edge once as ``u v`` lines."""
    path = Path(path)
    with _open_text(path, "w") as fh:
        fh.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                 f"{graph.num_edges} edges\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
