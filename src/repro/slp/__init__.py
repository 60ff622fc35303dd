"""repro.slp — the SLP / LSLP straight-line-code vectorizer.

The paper's contribution lives here: graph construction with multi-node
formation (:mod:`builder`), look-ahead operand reordering (:mod:`reorder`,
:mod:`lookahead`), graph costing (:mod:`cost`), vector code generation
(:mod:`codegen`), seeds (:mod:`seeds`), reductions (:mod:`reductions`),
the plan/select/apply decomposition (:mod:`plan`), and the top-level
pass (:mod:`vectorizer`).
"""

from .builder import BuildPolicy, BuildStats, GraphBuilder
from .codegen import ApplyCheck, CodegenError, VectorCodeGen
from .cost import GraphCost, NodeCost, compute_graph_cost
from .exhaustive import ExhaustiveReorderer
from .graph import GatherNode, MultiNode, SLPGraph, SLPNode, VectorizableNode
from .lookahead import (
    LookAheadContext,
    are_consecutive_or_match,
    get_lookahead_score,
    get_lookahead_score_max,
)
from .plan import (
    PLAN_SELECT_MODES,
    Applier,
    BlockPlan,
    Planner,
    Selection,
    Selector,
    TreePlan,
)
from .reductions import ReductionPlan, emit_reduction, plan_reduction
from .reorder import OperandMode, OperandReorderer, ReorderResult, initial_mode
from .seeds import (
    ReductionSeed,
    SeedGroup,
    collect_reduction_seeds,
    collect_store_seeds,
)
from .vectorizer import (
    TreeRecord,
    VectorizationReport,
    VectorizerConfig,
)

__all__ = [
    "Applier",
    "ApplyCheck",
    "are_consecutive_or_match",
    "BlockPlan",
    "BuildPolicy",
    "BuildStats",
    "CodegenError",
    "collect_reduction_seeds",
    "collect_store_seeds",
    "compute_graph_cost",
    "emit_reduction",
    "ExhaustiveReorderer",
    "GatherNode",
    "get_lookahead_score",
    "get_lookahead_score_max",
    "GraphBuilder",
    "GraphCost",
    "initial_mode",
    "LookAheadContext",
    "MultiNode",
    "NodeCost",
    "OperandMode",
    "OperandReorderer",
    "PLAN_SELECT_MODES",
    "plan_reduction",
    "Planner",
    "ReductionPlan",
    "ReductionSeed",
    "ReorderResult",
    "SeedGroup",
    "Selection",
    "Selector",
    "TreePlan",
    "SLPGraph",
    "SLPNode",
    "TreeRecord",
    "VectorCodeGen",
    "VectorizableNode",
    "VectorizationReport",
    "VectorizerConfig",
]
