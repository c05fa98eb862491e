"""Pattern graphs, symmetry breaking, matching plans and reference execution."""

from .bruteforce import count_labeled_embeddings, count_unique_embeddings
from .codegen import (
    TaskOp,
    compile_task_list,
    decode_task_op,
    encode_task_op,
    render_task_list,
)
from .executor import (
    ExecutionStats,
    apply_filters,
    count_embeddings,
    enumerate_embeddings,
)
from .iep import (
    Choose,
    Const,
    Expression,
    MatchedInSet,
    PairIntersection,
    SetSize,
    count_with_expression,
)
from .pattern import MOTIF3, PATTERNS, Pattern, motif_patterns
from .plan import (
    DEFAULT_INDUCED,
    LevelSpec,
    MatchingPlan,
    build_plan,
    choose_order,
)
from .symmetry import Restriction, symmetry_restrictions

__all__ = [
    "Choose",
    "Const",
    "DEFAULT_INDUCED",
    "ExecutionStats",
    "Expression",
    "MatchedInSet",
    "PairIntersection",
    "SetSize",
    "apply_filters",
    "compile_task_list",
    "count_with_expression",
    "decode_task_op",
    "encode_task_op",
    "render_task_list",
    "TaskOp",
    "LevelSpec",
    "MOTIF3",
    "MatchingPlan",
    "PATTERNS",
    "Pattern",
    "Restriction",
    "build_plan",
    "choose_order",
    "count_embeddings",
    "count_labeled_embeddings",
    "count_unique_embeddings",
    "enumerate_embeddings",
    "motif_patterns",
    "symmetry_restrictions",
]
