"""The key of the service's cost record: one query's shape.

One graph snapshot and canonical pattern, run on one engine, always do
the same work, so the record (:mod:`.predictor`) prices that pair and
nothing else.  The pattern side is
:func:`~repro.service.cache.pattern_cache_key` output, the key the result
cache uses too, so isomorphic submissions share one record entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...graph.csr import CSRGraph

__all__ = ["QueryFeatures", "query_features"]


class QueryFeatures(NamedTuple):
    """One query's shape, less the engine it runs on."""

    fingerprint: str
    pattern_key: tuple


def query_features(
    graph: "CSRGraph",
    fingerprint: str,
    pattern_key: tuple,
) -> QueryFeatures:
    """The shape of one query of ``pattern_key`` on snapshot
    ``fingerprint``.  ``graph`` is not read: the fingerprint names it."""
    return QueryFeatures(fingerprint, pattern_key)
