"""repro: answering SQL queries with aggregation using materialized views.

A faithful, executable reproduction of Dar, Jagadish, Levy and Srivastava,
*"Reasoning with Aggregation Constraints in Views"* (1996; the work
published at VLDB'96 as "Answering Queries with Aggregation Using Views").

:mod:`repro.api` is the single documented entry point — ``rewrite``,
``rewrite_batch``, ``explain``, ``rewrite_iterative`` and ``connect``
(for a running ``repro serve`` daemon) all return responses that project
to the versioned ``repro-api/1`` JSON envelope. Quickstart::

    from repro import Catalog, api, parse_view, table

    catalog = Catalog([
        table("Calls", ["Call_Id", "Plan_Id", "Year", "Charge"],
              key=["Call_Id"], row_count=1_000_000),
    ])
    catalog.add_view(parse_view(
        "CREATE VIEW Yearly (Plan_Id, Year, Total) AS "
        "SELECT Plan_Id, Year, SUM(Charge) FROM Calls "
        "GROUP BY Plan_Id, Year", catalog))
    response = api.rewrite(
        "SELECT Plan_Id, SUM(Charge) FROM Calls "
        "WHERE Year = 1995 GROUP BY Plan_Id", catalog)
    print(response.best().sql())

See DESIGN.md for the system inventory, docs/api.md for the facade and
docs/serving.md for the daemon; EXPERIMENTS.md has the reproduced
experiments.
"""

from .blocks import (
    AggFunc,
    Aggregate,
    Column,
    Comparison,
    Constant,
    Op,
    QueryBlock,
    Relation,
    SelectItem,
    ViewDef,
    block_to_sql,
    parse_query,
    parse_view,
    view_to_sql,
)
from .blocks.unfold import unfold_views
from .cache import CacheStats, QueryCache
from .catalog import Catalog, TableSchema, fd, table
from .maintenance import MaintainedView
from .constraints import (
    Closure,
    equivalent,
    implies,
    normalize_having,
    satisfiable,
)
from .core import (
    RewriteEngine,
    contained_in,
    explain_usability,
    multiset_equivalent,
    set_equivalent,
    RewriteResult,
    Rewriting,
    canonical_key,
    single_view_rewritings,
    try_rewrite_aggregation,
    try_rewrite_conjunctive,
    try_rewrite_paper_va,
    try_rewrite_set_semantics,
)
from .engine import Database, Table
from .equivalence import assert_equivalent, check_equivalent
from .obs import BudgetMeter, RewriteTrace, SearchBudget
from .errors import (
    EvaluationError,
    NormalizationError,
    ReproError,
    RewriteError,
    SchemaError,
    SQLSyntaxError,
    UnsupportedSQLError,
)
from .mappings import ColumnMapping, enumerate_mappings
from . import api
from .api import (
    ExplainResponse,
    explain,
    rewrite,
    rewrite_batch,
)
from .service import (
    BatchResult,
    RewriteRequest,
    RewriteResponse,
)

__version__ = "1.0.0"

__all__ = [
    "AggFunc",
    "Aggregate",
    "Column",
    "Comparison",
    "Constant",
    "Op",
    "QueryBlock",
    "Relation",
    "SelectItem",
    "ViewDef",
    "block_to_sql",
    "parse_query",
    "parse_view",
    "view_to_sql",
    "unfold_views",
    "MaintainedView",
    "QueryCache",
    "CacheStats",
    "Catalog",
    "TableSchema",
    "fd",
    "table",
    "Closure",
    "equivalent",
    "implies",
    "normalize_having",
    "satisfiable",
    "RewriteEngine",
    "contained_in",
    "explain_usability",
    "multiset_equivalent",
    "set_equivalent",
    "RewriteResult",
    "Rewriting",
    "canonical_key",
    "single_view_rewritings",
    "try_rewrite_aggregation",
    "try_rewrite_conjunctive",
    "try_rewrite_paper_va",
    "try_rewrite_set_semantics",
    "Database",
    "Table",
    "assert_equivalent",
    "check_equivalent",
    "BudgetMeter",
    "RewriteTrace",
    "SearchBudget",
    "EvaluationError",
    "NormalizationError",
    "ReproError",
    "RewriteError",
    "SchemaError",
    "SQLSyntaxError",
    "UnsupportedSQLError",
    "ColumnMapping",
    "enumerate_mappings",
    "api",
    "rewrite",
    "rewrite_batch",
    "explain",
    "ExplainResponse",
    "RewriteRequest",
    "RewriteResponse",
    "BatchResult",
    "__version__",
]
