"""IEP result-collection expressions (paper §4.2, Figure 7).

Intersection Expression Pruning replaces the deepest loops of a matching
plan with a closed-form expression over candidate-set sizes, evaluated on
the RISC-V host per partial embedding.  The paper shows three instances:
plain accumulation (3CF), the diamond's ``A(A-1)/2``, and GraphSet-style
arbitrary expressions (TRI6).  This module provides the expression language
and an executor that runs a plan *prefix* and folds the expression at the
cut, so arbitrary IEP-enhanced plans can be counted without enumerating the
pruned levels.

Terms available (all evaluated against the current partial embedding):

* :class:`Const` — integer literal;
* :class:`SetSize` — ``|S_k|``: size of the raw candidate set stored at
  level ``k``;
* :class:`MatchedInSet` — how many already-matched vertices lie inside
  ``S_k`` (the distinctness correction IEP needs);
* :class:`PairIntersection` — ``|S_a ∩ S_b|`` of two stored sets (the
  coincidence correction for two independent pruned vertices);
* arithmetic ``+ - *`` and :class:`Choose` (binomial coefficient).

Example — the diamond of Figure 7c, collected as ``C(|S1|, 2)``::

    plan = build_plan(PATTERNS["DIA"], collection="enumerate")
    expr = Choose(SetSize(2), 2)
    count = count_with_expression(graph, plan, stop_level=2, expression=expr)
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from ..errors import PlanError
from ..graph.csr import CSRGraph
from ..setops.reference import intersect_count
from .plan import MatchingPlan

__all__ = [
    "Expression",
    "Const",
    "SetSize",
    "MatchedInSet",
    "PairIntersection",
    "Add",
    "Sub",
    "Mul",
    "Choose",
    "count_with_expression",
]


@dataclass(frozen=True)
class _Context:
    """Evaluation state at the IEP cut: stored sets + matched vertices."""

    stored: tuple[np.ndarray | None, ...]
    embedding: tuple[int, ...]

    def set_at(self, level: int) -> np.ndarray:
        if not 1 <= level < len(self.stored):
            raise PlanError(f"no candidate set stored at level {level}")
        return self.stored[level]


class Expression(ABC):
    """A host-evaluated integer expression over the IEP context."""

    @abstractmethod
    def evaluate(self, ctx: _Context) -> int:
        """Value for one partial embedding."""

    def __add__(self, other: "Expression") -> "Expression":
        return Add(self, other)

    def __sub__(self, other: "Expression") -> "Expression":
        return Sub(self, other)

    def __mul__(self, other: "Expression") -> "Expression":
        return Mul(self, other)


@dataclass(frozen=True)
class Const(Expression):
    value: int

    def evaluate(self, ctx: _Context) -> int:
        return self.value


@dataclass(frozen=True)
class SetSize(Expression):
    """``|S_level|`` — raw candidate-set size stored at a plan level."""

    level: int

    def evaluate(self, ctx: _Context) -> int:
        return int(ctx.set_at(self.level).size)


@dataclass(frozen=True)
class MatchedInSet(Expression):
    """Number of already-matched vertices contained in ``S_level``."""

    level: int

    def evaluate(self, ctx: _Context) -> int:
        s = ctx.set_at(self.level)
        count = 0
        for v in ctx.embedding:
            i = int(np.searchsorted(s, v))
            if i < s.size and int(s[i]) == v:
                count += 1
        return count


@dataclass(frozen=True)
class PairIntersection(Expression):
    """``|S_a ∩ S_b|`` of two stored candidate sets."""

    level_a: int
    level_b: int

    def evaluate(self, ctx: _Context) -> int:
        return intersect_count(
            ctx.set_at(self.level_a), ctx.set_at(self.level_b)
        )


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression

    def evaluate(self, ctx: _Context) -> int:
        return self.left.evaluate(ctx) + self.right.evaluate(ctx)


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression

    def evaluate(self, ctx: _Context) -> int:
        return self.left.evaluate(ctx) - self.right.evaluate(ctx)


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression

    def evaluate(self, ctx: _Context) -> int:
        return self.left.evaluate(ctx) * self.right.evaluate(ctx)


@dataclass(frozen=True)
class Choose(Expression):
    """Binomial coefficient ``C(inner, k)`` (0 when inner < k)."""

    inner: Expression
    k: int

    def evaluate(self, ctx: _Context) -> int:
        n = self.inner.evaluate(ctx)
        if n < self.k:
            return 0
        return math.comb(n, self.k)


def count_with_expression(
    graph: CSRGraph,
    plan: MatchingPlan,
    stop_level: int,
    expression: Expression,
) -> int:
    """Run ``plan`` down to ``stop_level`` and fold ``expression`` there.

    Levels ``1..stop_level`` are matched normally (with all filters); for
    every surviving partial embedding the expression is evaluated against
    the stored raw candidate sets and accumulated — the IEP flow the paper's
    host executes.  ``stop_level`` counts *matched* levels, so the candidate
    set computed at level ``stop_level`` is available to the expression.
    """
    if not 1 <= stop_level < plan.depth:
        raise PlanError("stop_level must lie inside the plan")
    # the interpreter lives in the engine layer, which imports this package
    from ..engine.functional import walk_tasks

    # the plan as the host runs it: its prefix, the cut level as the leaf,
    # and no filter there — the expression is handed the raw set
    cut = replace(
        plan.levels[stop_level],
        upper_bounds=(), lower_bounds=(), exclude=(), label=None,
    )
    prefix = replace(
        plan, levels=(*plan.levels[:stop_level], cut), collection="count_last"
    )
    total = 0
    for task, expansion in walk_tasks(graph, prefix, stop_level):
        if task.level == stop_level:
            above = (task.ancestor(k).raw_set for k in range(1, stop_level))
            ctx = _Context(
                stored=(None, *above, expansion.result),
                embedding=task.embedding,
            )
            total += expression.evaluate(ctx)
    return total
