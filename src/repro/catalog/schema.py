"""Database schema metadata: tables, views, keys, statistics.

The paper's core results (Sections 3 and 4) assume *no* meta-information
about the schema beyond column lists; keys and functional dependencies are
optional extras consumed only by the Section 5 machinery and by the
cost-based rewriting selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..blocks.query_block import ViewDef
from ..errors import SchemaError
from .fds import FunctionalDependency, fd


@dataclass(frozen=True)
class TableSchema:
    """Schema of one base table.

    ``keys`` are candidate keys (sets of column names). ``fds`` are
    additional functional dependencies beyond those implied by the keys.
    ``row_count`` is an estimated cardinality used only for costing.
    """

    name: str
    columns: tuple[str, ...]
    keys: tuple[frozenset[str], ...] = ()
    fds: tuple[FunctionalDependency, ...] = ()
    row_count: int = 1000
    #: optional per-column number-of-distinct-values statistics, stored as
    #: (column, count) pairs to keep the dataclass hashable.
    distinct_counts: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"table {self.name}: duplicate column names")
        column_set = set(self.columns)
        for key in self.keys:
            if not key <= column_set:
                raise SchemaError(
                    f"table {self.name}: key {sorted(key)} mentions unknown "
                    f"columns"
                )
        for dep in self.fds:
            if not (dep.lhs | dep.rhs) <= column_set:
                raise SchemaError(
                    f"table {self.name}: FD {dep} mentions unknown columns"
                )

    @property
    def has_key(self) -> bool:
        return bool(self.keys)

    def distinct_count(self, column: str) -> int:
        """Estimated distinct values of a column.

        Key columns are unique by definition; otherwise the declared
        statistic, defaulting to a tenth of the row count.
        """
        for name, count in self.distinct_counts:
            if name == column:
                return max(1, count)
        if any(column in key and len(key) == 1 for key in self.keys):
            return max(1, self.row_count)
        return max(1, self.row_count // 10)

    def all_fds(self) -> tuple[FunctionalDependency, ...]:
        """Declared FDs plus one ``key -> all columns`` FD per key."""
        key_fds = tuple(
            fd(key, set(self.columns) - key) for key in self.keys if
            set(self.columns) - key
        )
        return self.fds + key_fds


def table(
    name: str,
    columns: Iterable[str],
    key: Optional[Iterable[str]] = None,
    keys: Iterable[Iterable[str]] = (),
    fds: Iterable[FunctionalDependency] = (),
    row_count: int = 1000,
    distinct: Optional[dict] = None,
) -> TableSchema:
    """Convenience constructor mirroring a CREATE TABLE statement.

    ``key`` declares a single primary key; ``keys`` declares several
    candidate keys; ``distinct`` maps column names to estimated
    numbers of distinct values (used by the cost model).
    """
    key_sets = [frozenset(k) for k in keys]
    if key is not None:
        key_sets.insert(0, frozenset(key))
    return TableSchema(
        name=name,
        columns=tuple(columns),
        keys=tuple(key_sets),
        fds=tuple(fds),
        row_count=row_count,
        distinct_counts=tuple((distinct or {}).items()),
    )


class Catalog:
    """Name resolution for tables and views plus their metadata.

    A catalog is the single source of truth for what names mean in FROM
    clauses: base tables, user views (rewriting candidates) and auxiliary
    views created by the rewriting algorithm itself (the ``Va`` views of
    step S4'/S5').

    Every mutator moves ``version`` after it writes: change a catalog
    only through its methods, or :meth:`memo` will not see the change.
    """

    _memo: tuple = (-1, {})  # (version, values); never copied or pickled

    def __init__(self, tables: Iterable[TableSchema] = ()):
        self._tables: dict[str, TableSchema] = {}
        self._views: dict[str, ViewDef] = {}
        self._view_row_counts: dict[str, int] = {}
        self.version = 0
        for schema in tables:
            self.add_table(schema)

    # ------------------------------------------------------------------

    def add_table(self, schema: TableSchema) -> None:
        if schema.name in self._tables or schema.name in self._views:
            raise SchemaError(f"duplicate relation name {schema.name}")
        self._tables[schema.name] = schema
        self.version += 1

    def add_view(self, view: ViewDef, row_count: Optional[int] = None) -> None:
        if view.name in self._tables or view.name in self._views:
            raise SchemaError(f"duplicate relation name {view.name}")
        self._views[view.name] = view
        if row_count is not None:
            self._view_row_counts[view.name] = row_count
        self.version += 1

    def set_table_row_count(self, name: str, count: int) -> None:
        """Record an observed cardinality for a base table (for costing)."""
        from dataclasses import replace

        schema = self.table(name)
        self._tables[name] = replace(schema, row_count=count)
        self.version += 1

    def remove_view(self, name: str) -> None:
        """Drop a view (used by caches that evict materializations)."""
        if name not in self._views:
            raise SchemaError(f"unknown view {name}")
        del self._views[name]
        self._view_row_counts.pop(name, None)
        self.version += 1

    def memo(self) -> dict:
        """A dict for values computed from this catalog (the serving
        keys) at the version read *before* the caller computes them."""
        version = self.version
        memo_version, values = self._memo
        if memo_version != version:
            values = {}
            self._memo = (version, values)
        return values

    # ------------------------------------------------------------------

    @property
    def tables(self) -> dict[str, TableSchema]:
        return dict(self._tables)

    @property
    def views(self) -> dict[str, ViewDef]:
        return dict(self._views)

    def is_table(self, name: str) -> bool:
        return name in self._tables

    def is_view(self, name: str) -> bool:
        return name in self._views

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name}") from None

    def view(self, name: str) -> ViewDef:
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"unknown view {name}") from None

    def columns_of(self, name: str) -> tuple[str, ...]:
        """Output column names of a table or view."""
        if name in self._tables:
            return self._tables[name].columns
        if name in self._views:
            return self._views[name].output_names
        raise SchemaError(f"unknown relation {name}")

    def row_count(self, name: str) -> int:
        """Estimated cardinality of a relation, for costing.

        For a view without an explicit estimate, a crude default assumes the
        view condenses its sources (grouping) or preserves the dominant
        source size divided by the number of predicates.
        """
        if name in self._tables:
            return self._tables[name].row_count
        if name in self._view_row_counts:
            return self._view_row_counts[name]
        if name in self._views:
            return self._estimate_view(self._views[name])
        raise SchemaError(f"unknown relation {name}")

    def set_row_count(self, name: str, count: int) -> None:
        """Record an observed/estimated cardinality for a view."""
        if name not in self._views:
            raise SchemaError(f"unknown view {name}")
        self._view_row_counts[name] = count
        self.version += 1

    def _estimate_view(self, view: ViewDef) -> int:
        size = 1
        for rel in view.block.from_:
            if rel.name in self._tables:
                size *= max(1, self._tables[rel.name].row_count)
            else:
                size *= 100
        # Each equality predicate roughly divides the cross product by 10;
        # grouping condenses further.
        for _ in view.block.where:
            size = max(1, size // 10)
        if view.block.group_by or view.block.is_aggregation:
            size = max(1, size // 10)
        return size

    def copy(self) -> "Catalog":
        clone = Catalog()
        clone._tables = dict(self._tables)
        clone._views = dict(self._views)
        clone._view_row_counts = dict(self._view_row_counts)
        return clone

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state
