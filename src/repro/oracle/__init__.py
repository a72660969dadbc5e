"""Cross-backend execution oracle.

The repro engine (:mod:`repro.engine`) is both the evaluator *and* the
referee of every soundness check, so a bug shared by the evaluator and
the rewriter is invisible to the in-repo harnesses. This package lowers
:class:`~repro.blocks.query_block.QueryBlock`\\ s to dialect-correct SQL
(:mod:`repro.dialects`) executed on independently implemented backends —
stdlib ``sqlite3`` always, DuckDB when installed — and asserts
multiset-equality of the query, every view materialization and every
produced rewriting across all of them (see ``docs/oracle.md`` and
``docs/dialects.md``).
"""

from .backends import (
    BACKEND_NAMES,
    DBAPIBackend,
    DuckDBBackend,
    SQLiteBackend,
    available_backends,
    backend_available,
    create_backend,
)
from .crosscheck import (
    ENGINE_MODES,
    CheckReport,
    CrossChecker,
    Mismatch,
    check_scenario,
)
from .values import normalize_row, normalize_value, rows_multiset_equal

__all__ = [
    "BACKEND_NAMES",
    "CheckReport",
    "CrossChecker",
    "DBAPIBackend",
    "DuckDBBackend",
    "ENGINE_MODES",
    "Mismatch",
    "SQLiteBackend",
    "available_backends",
    "backend_available",
    "check_scenario",
    "create_backend",
    "normalize_row",
    "normalize_value",
    "rows_multiset_equal",
]
