"""Matching plans: vertex orders, per-level set operations, restrictions.

A :class:`MatchingPlan` is the artifact a system like GraphPi produces
(paper §4.2 step ①): an order over the pattern vertices plus, for each
level, the set operations that compute the candidate set and the
symmetry-breaking / distinctness filters to apply when spawning.

Semantics
---------
*Non-induced* matching (the GPM default) maps every pattern edge onto a data
edge; candidate sets are intersections of matched neighbours.  *Induced*
matching additionally requires pattern non-edges to be absent, which compiles
to **set difference** operations — the paper notes CYC and TT generate large
intermediate sets through set difference, so those patterns default to their
induced plans here (see :data:`DEFAULT_INDUCED`).

IEP
---
Counting workloads avoid materialising the deepest loops.  Two collection
modes are compiled automatically (paper Figure 7):

* ``count_last`` — the final level only counts the filtered candidate set
  (hardware count-only mode, 3CF/4CF/5CF style);
* ``choose2`` — the final *two* symmetric levels draw from the same candidate
  set with one restriction between them, so the host collects
  ``A·(A−1)/2`` per parent (the diamond's ``|S|`` expression in Figure 7c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

from ..errors import PlanError
from .pattern import Pattern
from .symmetry import Restriction, symmetry_restrictions

__all__ = [
    "LevelSpec",
    "MatchingPlan",
    "build_plan",
    "choose_order",
    "Anchor",
    "anchored_plans",
    "DEFAULT_INDUCED",
]

#: patterns the evaluation counts in induced form (difference-heavy plans)
DEFAULT_INDUCED = frozenset({"CYC", "TT", "WEDGE", "P3"})


@dataclass(frozen=True)
class LevelSpec:
    """Compiled matching actions for one level of the search tree.

    ``deps``/``anti_deps`` are *positions* (levels) of earlier matched
    vertices whose neighbour sets are intersected / subtracted.  Bounds are
    positions whose matched vertex upper/lower-limits the candidates.
    ``exclude`` lists positions whose matched vertex must be filtered out for
    distinctness (non-adjacent earlier vertices).
    """

    position: int
    pattern_vertex: int
    deps: tuple[int, ...]
    anti_deps: tuple[int, ...] = ()
    reuse_from: int | None = None
    upper_bounds: tuple[int, ...] = ()
    lower_bounds: tuple[int, ...] = ()
    exclude: tuple[int, ...] = ()
    #: earlier level whose *stored* candidate set this level extends
    #: (prefix reuse — the standard GPM optimisation of intersecting the
    #: parent's set with one more neighbour list instead of recomputing)
    base: int | None = None
    #: neighbour sets intersected on top of ``base`` (positions)
    extra_deps: tuple[int, ...] = ()
    #: neighbour sets subtracted on top of ``base`` (positions)
    extra_anti: tuple[int, ...] = ()
    #: required data-vertex label for candidates at this level (labelled GPM)
    label: int | None = None

    @property
    def num_set_ops(self) -> int:
        """SIU operations this level issues (intersections + differences)."""
        if self.reuse_from is not None:
            return 0
        if self.base is not None:
            return len(self.extra_deps) + len(self.extra_anti)
        return max(len(self.deps) - 1, 0) + len(self.anti_deps)

    def signature(self) -> tuple[frozenset[int], frozenset[int]]:
        return frozenset(self.deps), frozenset(self.anti_deps)

    def describe(self) -> str:
        """Human-readable task description in the paper's Figure 10e style."""
        if self.reuse_from is not None:
            src = f"S{self.reuse_from}"
        else:
            parts = [f"N(u{p})" for p in self.deps]
            src = " ∩ ".join(parts) if parts else "V(G)"
            for p in self.anti_deps:
                src += f" − N(u{p})"
        filters = [f"< u{p}" for p in self.upper_bounds]
        filters += [f"> u{p}" for p in self.lower_bounds]
        filters += [f"≠ u{p}" for p in self.exclude]
        flt = f"  [{', '.join(filters)}]" if filters else ""
        return f"u{self.position} ∈ {src}{flt}"


@dataclass(frozen=True)
class MatchingPlan:
    """A complete GPM matching plan for one pattern."""

    pattern: Pattern
    order: tuple[int, ...]
    restrictions: tuple[Restriction, ...]
    levels: tuple[LevelSpec, ...]
    induced: bool = False
    #: result-collection mode: "enumerate", "count_last" or "choose2"
    collection: str = "count_last"

    def __getstate__(self) -> dict:
        # kernel_cache_key's memo holds per-process hashes: it stays here
        return {k: v for k, v in vars(self).items() if k != "_kernel_keys"}

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def stop_level(self) -> int:
        """Deepest level actually executed (leaf of the search tree).

        ``choose2`` collapses the final two levels into one closed-form
        count, so its leaf sits one level higher than the plan depth.
        """
        if self.collection == "choose2":
            return self.depth - 2
        return self.depth - 1  # enumerate / count_last

    def describe(self) -> str:
        lines = [
            f"plan for {self.pattern.name} "
            f"({'induced' if self.induced else 'non-induced'}, "
            f"collection={self.collection})",
            f"order: {self.order}",
            "restrictions: "
            + (", ".join(str(r) for r in self.restrictions) or "none"),
        ]
        lines += ["  " + lv.describe() for lv in self.levels]
        return "\n".join(lines)


def choose_order(pattern: Pattern) -> tuple[int, ...]:
    """Greedy connectivity-first matching order.

    Starts at a maximum-degree vertex, then repeatedly appends the vertex
    with the most edges into the prefix (ties: higher pattern degree, then
    lower index) — the standard heuristic that keeps candidate sets small by
    intersecting as early as possible.
    """
    k = pattern.num_vertices
    start = max(range(k), key=lambda v: (pattern.degree(v), -v))
    return _extend_order(pattern, [start])


def _extend_order(pattern: Pattern, order: list[int]) -> tuple[int, ...]:
    """``order`` completed by :func:`choose_order`'s greedy rule."""
    k = pattern.num_vertices
    remaining = set(range(k)) - set(order)
    while remaining:
        def score(v: int) -> tuple[int, int, int]:
            back = sum(1 for u in order if pattern.adjacent(u, v))
            return (back, pattern.degree(v), -v)

        nxt = max(remaining, key=score)
        if all(not pattern.adjacent(u, nxt) for u in order) and k > 1:
            raise PlanError(
                f"pattern {pattern.name!r} admits no connected order"
            )
        order.append(nxt)
        remaining.discard(nxt)
    return tuple(order)


def _compile_levels(
    pattern: Pattern,
    order: Sequence[int],
    restrictions: Sequence[Restriction],
    induced: bool,
) -> tuple[LevelSpec, ...]:
    pos_of = {v: i for i, v in enumerate(order)}
    labels = pattern.labels
    levels: list[LevelSpec] = []
    signatures: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    for i, v in enumerate(order):
        deps = tuple(
            sorted(pos_of[u] for u in order[:i] if pattern.adjacent(u, v))
        )
        anti = tuple(
            sorted(pos_of[u] for u in order[:i] if not pattern.adjacent(u, v))
        )
        anti_deps = anti if induced else ()
        upper = tuple(
            sorted(
                pos_of[r.greater]
                for r in restrictions
                if r.smaller == v and pos_of[r.greater] < i
            )
        )
        lower = tuple(
            sorted(
                pos_of[r.smaller]
                for r in restrictions
                if r.greater == v and pos_of[r.smaller] < i
            )
        )
        # Prefix reuse: extend the deepest earlier stored set whose deps and
        # anti-deps are subsets of ours (valid since (X−A)∩Y−B == X∩Y−A−B).
        base: int | None = None
        extra_deps = deps
        extra_anti = anti_deps
        if i > 1 and deps:
            for j in range(i - 1, 0, -1):
                prev = levels[j]
                if not prev.deps:
                    continue
                if set(prev.deps) <= set(deps) and set(prev.anti_deps) <= set(
                    anti_deps
                ):
                    base = j
                    extra_deps = tuple(
                        p for p in deps if p not in prev.deps
                    )
                    extra_anti = tuple(
                        p for p in anti_deps if p not in prev.anti_deps
                    )
                    break
        spec = LevelSpec(
            position=i,
            pattern_vertex=v,
            deps=deps,
            anti_deps=anti_deps,
            upper_bounds=upper,
            lower_bounds=lower,
            exclude=anti,
            base=base,
            extra_deps=extra_deps if base is not None else deps,
            extra_anti=extra_anti if base is not None else anti_deps,
            label=labels[v] if labels is not None else None,
        )
        sig = spec.signature()
        if i > 0 and deps and sig in signatures:
            spec = LevelSpec(
                position=i,
                pattern_vertex=v,
                deps=deps,
                anti_deps=anti_deps,
                reuse_from=signatures[sig],
                upper_bounds=upper,
                lower_bounds=lower,
                exclude=anti,
                base=base,
                extra_deps=(),
                extra_anti=(),
                label=labels[v] if labels is not None else None,
            )
        else:
            signatures[sig] = i
        levels.append(spec)
    return tuple(levels)


def _detect_choose2(levels: Sequence[LevelSpec]) -> bool:
    """Can the last two levels collapse into an ``A(A-1)/2`` count?"""
    if len(levels) < 3:
        return False
    a, b = levels[-2], levels[-1]
    if b.signature() != a.signature():
        return False
    if a.label != b.label:
        return False  # the two collapsed vertices must accept the same label
    if b.reuse_from != a.position and a.reuse_from != b.reuse_from:
        # b must read the same stored set a iterates over
        if b.reuse_from is None:
            return False
    extra_upper = tuple(p for p in b.upper_bounds if p != a.position)
    extra_lower = tuple(p for p in b.lower_bounds if p != a.position)
    bound_between = (
        a.position in b.upper_bounds or a.position in b.lower_bounds
    )
    if not bound_between:
        return False
    # remaining bounds must match a's so both draw from the same filtered set
    return extra_upper == a.upper_bounds and extra_lower == a.lower_bounds


def build_plan(
    pattern: Pattern,
    induced: bool | None = None,
    order: Sequence[int] | None = None,
    collection: str | None = None,
) -> MatchingPlan:
    """Generate a matching plan for ``pattern``.

    ``induced`` defaults per-pattern (see :data:`DEFAULT_INDUCED`);
    ``order`` overrides the heuristic matching order; ``collection`` forces a
    result-collection mode (``enumerate`` disables IEP collapses so every
    embedding is spawned — needed by enumeration workloads).  Plans are
    immutable and memoised: equal arguments share one :class:`MatchingPlan`.
    """
    order = None if order is None else tuple(order)
    return _build_plan(pattern, induced, order, collection)


@lru_cache(maxsize=512)
def _build_plan(pattern, induced, order, collection) -> MatchingPlan:
    if induced is None:
        induced = pattern.name in DEFAULT_INDUCED
    order_t = order if order is not None else choose_order(pattern)
    if sorted(order_t) != list(range(pattern.num_vertices)):
        raise PlanError("order must be a permutation of the pattern vertices")
    restrictions = symmetry_restrictions(pattern)
    levels = _compile_levels(pattern, order_t, restrictions, induced)
    for lv in levels[1:]:
        if not lv.deps:
            raise PlanError(
                f"level {lv.position} of {pattern.name!r} is disconnected "
                "from the prefix; pick a different order"
            )
    if collection is None:
        collection = "choose2" if _detect_choose2(levels) else "count_last"
    elif collection not in ("enumerate", "count_last", "choose2"):
        raise PlanError(f"unknown collection mode {collection!r}")
    if collection == "choose2" and not _detect_choose2(levels):
        raise PlanError("choose2 collection not applicable to this plan")
    return MatchingPlan(
        pattern=pattern,
        order=order_t,
        restrictions=restrictions,
        levels=levels,
        induced=induced,
        collection=collection,
    )


class Anchor(NamedTuple):
    """One orbit ``O`` of ordered pattern pairs ``(a, b)``, ``a != b``,
    under the pattern's automorphisms, with the plan that counts the
    matches sending ``a`` to ``u`` and ``b`` to ``v`` of a data pair."""

    #: order ``(a, b, …)``, no restrictions, ``count_last``: entered at
    #: level 1 from the seed ``[[u, v]]`` (level 1 itself never runs)
    plan: MatchingPlan
    #: ``|O|``
    weight: int
    #: ``(a, b)`` is a pattern edge (else a non-edge, induced plans only)
    edge: bool
    #: the reversed orbit is another: its matches are this plan's from
    #: the seed ``[[v, u]]``
    mirrored: bool
    #: pattern labels of ``(a, b)``; None for an unlabelled pattern
    labels: tuple[int, int] | None


@lru_cache(maxsize=256)
def anchored_plans(
    pattern: Pattern, induced: bool
) -> tuple[int, tuple[Anchor, ...]]:
    """``|Aut(P)|`` and one :class:`Anchor` per pair orbit up to reversal:
    the edge orbits, and for an ``induced`` plan the non-edge orbits.

    A pattern match is an injective map ``P → G``; its pair ``(a, b)`` that
    lands on ``(u, v)`` is unique, and matches that land a pair of one
    orbit on ``(u, v)`` are equinumerous.  So the matches using ``(u, v)``
    are the weights times the anchored counts, and the embeddings
    (:func:`build_plan`'s count) are those matches over ``|Aut(P)|``.
    """
    autos = list(pattern.automorphisms())
    n, labels = pattern.num_vertices, pattern.labels
    seen: set[tuple[int, int]] = set()
    anchors = []
    for a in range(n):
        for b in range(n):
            edge = pattern.adjacent(a, b)
            if a == b or (a, b) in seen or not (edge or induced):
                continue
            orbit = {(s[a], s[b]) for s in autos}
            mirrored = (b, a) not in orbit
            seen |= orbit | {(y, x) for x, y in orbit}
            order = _extend_order(pattern, [a, b])
            plan = MatchingPlan(
                pattern=pattern,
                order=order,
                restrictions=(),
                levels=_compile_levels(pattern, order, (), induced),
                induced=induced,
            )
            anchors.append(Anchor(
                plan, len(orbit), edge, mirrored,
                None if labels is None else (labels[a], labels[b]),
            ))
    return len(autos), tuple(anchors)
