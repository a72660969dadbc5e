"""A database instance: base-table data plus view materialization.

The :class:`Database` binds a :class:`~repro.catalog.schema.Catalog` to
actual table contents, materializes catalog views on demand (memoized),
and evaluates query blocks. Rewritten queries may reference *local* views
(the auxiliary ``Va`` views built by step S4'/S5'); these are supplied per
call via ``extra_views``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from ..blocks.normalize import as_block
from ..blocks.query_block import QueryBlock, ViewDef
from ..catalog.schema import Catalog
from ..errors import EvaluationError, SchemaError
from .evaluator import evaluate_block
from .table import Table


class Database:
    """Catalog + data. The executable substrate for equivalence checks.

    ``engine`` is the default execution mode for every evaluation this
    database runs (``"row"``, ``"columnar"`` or ``"auto"``; see
    :func:`repro.engine.evaluator.evaluate_block` and
    ``docs/engine.md``); :meth:`execute` can override it per call.
    """

    def __init__(
        self,
        catalog: Catalog,
        tables: Optional[Mapping[str, Union[Table, Iterable]]] = None,
        engine: str = "auto",
    ):
        self.catalog = catalog
        self.engine = engine
        self._tables: dict[str, Table] = {}
        self._view_cache: dict[str, Table] = {}
        if tables:
            for name, data in tables.items():
                self.load(name, data)

    # ------------------------------------------------------------------

    def load(self, name: str, data: Union[Table, Iterable]) -> None:
        """Set the contents of a base table (rows or a prepared Table)."""
        schema = self.catalog.table(name)
        if isinstance(data, Table):
            table = data
        else:
            table = Table(schema.columns, data)
        if table.columns != schema.columns:
            raise SchemaError(
                f"table {name}: data columns {table.columns} do not match "
                f"schema {schema.columns}"
            )
        self._tables[name] = table
        self._view_cache.clear()

    def table(self, name: str) -> Table:
        if name not in self._tables:
            schema = self.catalog.table(name)  # raises if unknown
            self._tables[name] = Table(schema.columns, [])
        return self._tables[name]

    def append_rows(self, name: str, rows: Iterable) -> None:
        """Insert rows in place (O(delta); invalidates view caches)."""
        schema = self.catalog.table(name)
        table = self.table(name)
        width = len(schema.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise SchemaError(
                    f"table {name}: row {row!r} has {len(row)} values for "
                    f"{width} columns"
                )
            table.rows.append(row)
        table.invalidate_columns()
        self._view_cache.clear()

    def remove_rows(self, name: str, rows: Iterable) -> None:
        """Delete one copy of each row in place; raises if absent."""
        from collections import Counter

        table = self.table(name)
        to_remove = Counter(tuple(r) for r in rows)
        kept = []
        for row in table.rows:
            if to_remove[row] > 0:
                to_remove[row] -= 1
            else:
                kept.append(row)
        missing = +to_remove
        if missing:
            raise SchemaError(
                f"table {name}: rows not present: {dict(missing)}"
            )
        table.rows[:] = kept
        table.invalidate_columns()
        self._view_cache.clear()

    # ------------------------------------------------------------------

    def materialize(self, view_name: str) -> Table:
        """Evaluate a catalog view's definition (memoized until data load)."""
        if view_name not in self._view_cache:
            view = self.catalog.view(view_name)
            result = self.execute(view.block)
            # Rows come straight from an executor: correctly shaped by
            # construction, so skip the validating copy (views can be
            # millions of rows).
            self._view_cache[view_name] = Table.from_rows(
                view.output_names, result.rows
            )
            self.catalog.set_row_count(view_name, len(result.rows))
        return self._view_cache[view_name]

    def execute(
        self,
        query: Union[str, QueryBlock],
        extra_views: Optional[Mapping[str, ViewDef]] = None,
        engine: Optional[str] = None,
    ) -> Table:
        """Evaluate SQL text or a block.

        ``extra_views`` supplies query-local view definitions (for example,
        the auxiliary views a rewriting introduces) that are visible only to
        this evaluation. ``engine`` overrides the database's default
        execution mode for this call only.
        """
        mode = engine if engine is not None else self.engine
        local = dict(extra_views or {})
        block = as_block(query, self.catalog)
        resolving: set[str] = set()

        def resolve(name: str) -> Table:
            if name in local:
                if name in resolving:
                    raise EvaluationError(f"cyclic view reference {name}")
                resolving.add(name)
                try:
                    view = local[name]
                    result = evaluate_block(view.block, resolve, engine=mode)
                    return Table.from_rows(view.output_names, result.rows)
                finally:
                    resolving.discard(name)
            if self.catalog.is_view(name):
                return self.materialize(name)
            return self.table(name)

        return evaluate_block(block, resolve, engine=mode)
