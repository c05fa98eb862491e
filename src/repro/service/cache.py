"""Result cache: LRU over ``(graph fingerprint, pattern, config)`` keys.

The pattern component is *canonical* — isomorphic patterns (same structure
and labels, any vertex numbering or name) map to the same key, so a query
for a hand-built triangle hits the entry cached for ``PATTERNS["3CF"]``.
The config component is :meth:`SystemConfig.cache_key`, because a cached
:class:`SimReport` carries timing numbers that depend on every knob, not
just the count-relevant ones.

Eviction is LRU with a fixed capacity; ``invalidate_fingerprint`` removes
(and returns) every entry of a graph that changed.  An edge write through
``QueryService.dynamic_session`` puts each returned whole-graph answer
back under the new fingerprint as a :class:`Stale` entry: the old report
and the one edit that separates the two snapshots.  ``get`` misses on a
stale entry; the service takes it (``take_stale``) on that miss and serves
the old count moved by the edit's edge-anchored delta
(:func:`~repro.core.incremental.edge_delta`) instead of a recount.  Stale
entries share the one LRU, so the capacity and ``invalidate_fingerprint``
bound them too: a second write drops a stale entry nobody read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, NamedTuple

from ..patterns.plan import DEFAULT_INDUCED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph
    from ..patterns.pattern import Pattern
    from ..sim.report import SimReport

__all__ = ["CacheKey", "ResultCache", "Stale", "pattern_cache_key"]


class CacheKey(NamedTuple):
    """One result-cache key; a plain tuple so it pickles and hashes."""

    fingerprint: str
    pattern_key: tuple
    config_key: tuple
    #: a shard's owned root range ``(lo, hi)``, set only by
    #: :mod:`repro.cluster.worker` (the service runs whole-graph queries
    #: and leaves it None).  Part of the key because two registrations
    #: can hold the same slice under different owned ranges.
    root_key: "tuple[int, int] | None" = None

    def with_fingerprint(self, fingerprint: str) -> "CacheKey":
        """The same query keyed against an updated graph snapshot."""
        return self._replace(fingerprint=fingerprint)


class Stale(NamedTuple):
    """A cached answer one edge edit behind its key's snapshot."""

    #: the answer for the snapshot before the edit
    report: "SimReport"
    #: the snapshot after the edit (the registered one, not a copy):
    #: :func:`~repro.core.incremental.edge_delta` reads either
    snapshot: "CSRGraph"
    u: int
    v: int
    inserted: bool


@lru_cache(maxsize=256)
def _canonical_form(
    num_vertices: int,
    edges: tuple[tuple[int, int], ...],
    labels: tuple[int, ...] | None,
) -> tuple:
    """Lexicographically minimal (edge set, labels) over all relabelings.

    Patterns are tiny (≤ ~8 vertices) so brute-force permutation search is
    exact and cheap, mirroring ``motif_patterns``'s canonicalisation.
    """
    best = None
    for perm in permutations(range(num_vertices)):
        relabeled_edges = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        ))
        relabeled_labels = None
        if labels is not None:
            out = [0] * num_vertices
            for v, lab in enumerate(labels):
                out[perm[v]] = lab
            relabeled_labels = tuple(out)
        candidate = (relabeled_edges, relabeled_labels)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return (num_vertices,) + best


def pattern_cache_key(pattern: "Pattern", induced: bool | None) -> tuple:
    """Canonical, name-independent cache key for one query pattern.

    ``induced=None`` is resolved to the per-pattern default *before*
    keying, exactly as :func:`~repro.patterns.plan.build_plan` resolves
    it — the key must reflect the plan that actually runs, or a
    ``submit(..., induced=None)`` on a :data:`DEFAULT_INDUCED` pattern
    would share an entry with ``induced=False`` and return wrong counts.
    """
    if induced is None:
        induced = pattern.name in DEFAULT_INDUCED
    return _canonical_form(
        pattern.num_vertices, tuple(pattern.edge_list), pattern.labels
    ) + (bool(induced),)


class ResultCache:
    """Bounded LRU mapping :class:`CacheKey` → :class:`SimReport` or
    :class:`Stale`."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = max(int(capacity), 1)
        self._entries: "OrderedDict[CacheKey, SimReport | Stale]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: CacheKey) -> "SimReport | None":
        """The fresh answer under ``key``; a stale one is a miss."""
        with self._lock:
            report = self._entries.get(key)
            if report is None or isinstance(report, Stale):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return report

    def take_stale(self, key: CacheKey) -> "Stale | None":
        """Remove and return the stale entry under ``key``, if that is
        what it holds."""
        with self._lock:
            if not isinstance(self._entries.get(key), Stale):
                return None
            return self._entries.pop(key)

    def put(self, key: CacheKey, report: "SimReport | Stale") -> None:
        with self._lock:
            self._entries[key] = report
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_fingerprint(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, "SimReport | Stale"]]:
        """Drop every entry of one graph snapshot; returns what was dropped."""
        with self._lock:
            dead = [k for k in self._entries if k.fingerprint == fingerprint]
            dropped = [(k, self._entries.pop(k)) for k in dead]
            self.invalidations += len(dropped)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
