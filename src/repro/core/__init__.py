"""The paper's core contribution: view-usability tests and rewriting."""

from .aggregate import try_rewrite_aggregation
from .canonical import blocks_isomorphic, canonical_key
from .conjunctive import try_rewrite_conjunctive
from .containment import (
    contained_in,
    multiset_equivalent,
    set_equivalent,
)
from .explain import UsabilityDiagnosis, explain_usability
from .cost import estimate_cost, estimate_result_rows, estimate_rows
from .multiview import (
    all_rewritings,
    all_rewritings_naive,
    rewrite_iteratively,
    single_view_rewritings,
)
from .paper_va import try_rewrite_paper_va
from .planner import (
    PlannerStats,
    RewritePlanner,
    ViewSignature,
    cache_stats,
)
from .result import Rewriting
from .rewriter import (
    RankedRewriting,
    RewriteEngine,
    RewriteResult,
)
from .setsem import try_rewrite_set_semantics

__all__ = [
    "try_rewrite_aggregation",
    "blocks_isomorphic",
    "canonical_key",
    "try_rewrite_conjunctive",
    "contained_in",
    "multiset_equivalent",
    "set_equivalent",
    "UsabilityDiagnosis",
    "explain_usability",
    "estimate_cost",
    "estimate_result_rows",
    "estimate_rows",
    "all_rewritings",
    "all_rewritings_naive",
    "rewrite_iteratively",
    "single_view_rewritings",
    "try_rewrite_paper_va",
    "PlannerStats",
    "RewritePlanner",
    "ViewSignature",
    "cache_stats",
    "Rewriting",
    "RankedRewriting",
    "RewriteEngine",
    "RewriteResult",
    "try_rewrite_set_semantics",
]
