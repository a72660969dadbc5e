"""The normalized single-block query representation (paper Section 2).

A :class:`QueryBlock` is the paper's

.. code-block:: sql

    SELECT   Sel(Q)
    FROM     R1(A1), ..., Rn(An)
    WHERE    Conds(Q)
    GROUP BY Groups(Q)
    HAVING   GConds(Q)

with every column of every table occurrence renamed to a globally unique
:class:`~repro.blocks.terms.Column`, so column identity is unambiguous and
self-joins are unproblematic.

The accessors mirror the paper's notation: :meth:`QueryBlock.cols`
(``Cols(Q)``), :meth:`QueryBlock.col_sel` (``ColSel(Q)``),
:meth:`QueryBlock.agg_sel` (``AggSel(Q)``), ``group_by`` (``Groups(Q)``),
``where`` (``Conds(Q)``) and ``having`` (``GConds(Q)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import NormalizationError
from .exprs import (
    Aggregate,
    Arith,
    Expr,
    aggregates_in,
    columns_in,
    has_aggregate,
    is_row_expr,
    substitute_expr,
)
from .terms import Column, Comparison, Constant


@dataclass(frozen=True)
class Relation:
    """One FROM-clause item: a base table or view occurrence.

    ``name`` is the table or view name; ``columns`` are the occurrence's
    unique column names, positionally matching ``base_names`` (the names in
    the table's schema or the view's output header).
    """

    name: str
    columns: tuple[Column, ...]
    base_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.base_names):
            raise NormalizationError(
                f"relation {self.name}: {len(self.columns)} columns but "
                f"{len(self.base_names)} base names"
            )
        if len(set(self.base_names)) != len(self.base_names):
            raise NormalizationError(
                f"relation {self.name}: duplicate base column names"
            )

    def __str__(self) -> str:
        cols = ", ".join(c.name for c in self.columns)
        return f"{self.name}({cols})"

    def base_name_of(self, column: Column) -> str:
        """The schema name behind a unique column of this occurrence."""
        return self.base_names[self.columns.index(column)]

    def column_for(self, base_name: str) -> Column:
        """The unique column for a schema column name of this occurrence."""
        return self.columns[self.base_names.index(base_name)]


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: an expression and an optional output alias."""

    expr: Expr
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)

@dataclass(frozen=True)
class QueryBlock:
    """A single-block SQL query in the paper's normalized form."""

    select: tuple[SelectItem, ...]
    from_: tuple[Relation, ...]
    where: tuple[Comparison, ...] = ()
    group_by: tuple[Column, ...] = ()
    having: tuple[Comparison, ...] = ()
    distinct: bool = False

    def __hash__(self) -> int:
        # Blocks are deeply frozen but large; equality-keyed caches (the
        # canonical-key memo) hash them repeatedly, so compute once.
        try:
            return object.__getattribute__(self, "_cached_hash")
        except AttributeError:
            value = hash(
                (
                    self.select,
                    self.from_,
                    self.where,
                    self.group_by,
                    self.having,
                    self.distinct,
                )
            )
            object.__setattr__(self, "_cached_hash", value)
            return value

    def __getstate__(self) -> dict:
        # str hashes are salted per process (PYTHONHASHSEED), so a pickled
        # ``_cached_hash`` would be wrong in any other interpreter and
        # silently corrupt every dict keyed by blocks there (the planner's
        # substitution memo shipped to pool workers). Recompute on demand.
        # The default-dialect text ``block_to_sql`` caches stays in its
        # process too: it would only add bytes to every memo export.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        state.pop("_cached_sql", None)
        return state

    # ------------------------------------------------------------------
    # Paper-notation accessors
    # ------------------------------------------------------------------

    def cols(self) -> frozenset[Column]:
        """``Cols(Q)``: all columns of all FROM-clause occurrences."""
        return frozenset(c for rel in self.from_ for c in rel.columns)

    def col_sel(self) -> tuple[Column, ...]:
        """``ColSel(Q)``: the non-aggregation SELECT columns, in order."""
        return tuple(
            item.expr for item in self.select if isinstance(item.expr, Column)
        )

    def agg_sel(self) -> frozenset[Column]:
        """``AggSel(Q)``: columns aggregated upon in the SELECT clause."""
        out: set[Column] = set()
        for item in self.select:
            for agg in aggregates_in(item.expr):
                out.update(columns_in(agg.arg))
        return frozenset(out)

    def select_aggregates(self) -> tuple[Aggregate, ...]:
        """All aggregate nodes in the SELECT clause, in order."""
        return tuple(
            agg for item in self.select for agg in aggregates_in(item.expr)
        )

    def having_aggregates(self) -> tuple[Aggregate, ...]:
        """All aggregate nodes in the HAVING clause, in order."""
        out: list[Aggregate] = []
        for atom in self.having:
            for side in (atom.left, atom.right):
                out.extend(aggregates_in(side))
        return tuple(out)

    def all_aggregates(self) -> tuple[Aggregate, ...]:
        """Aggregates appearing anywhere (SELECT then HAVING)."""
        return self.select_aggregates() + self.having_aggregates()

    @property
    def is_conjunctive(self) -> bool:
        """True for a conjunctive query: no grouping, aggregation or HAVING."""
        return (
            not self.group_by
            and not self.having
            and not any(has_aggregate(i.expr) for i in self.select)
        )

    @property
    def is_aggregation(self) -> bool:
        """True for an aggregation query (paper Section 2)."""
        return not self.is_conjunctive

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------

    def output_names(self) -> tuple[str, ...]:
        """The result header: one name per SELECT item.

        Unaliased plain columns use their schema (base) name, as SQL does;
        other unaliased expressions get positional placeholders.
        """
        names = []
        for i, item in enumerate(self.select):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, Column):
                try:
                    names.append(self.relation_of(item.expr).base_name_of(item.expr))
                except NormalizationError:
                    names.append(item.expr.name)
            else:
                names.append(f"_col{i}")
        return tuple(names)

    def relation_of(self, column: Column) -> Relation:
        """The FROM-clause occurrence that owns ``column``."""
        for rel in self.from_:
            if column in rel.columns:
                return rel
        raise NormalizationError(f"column {column} not in any FROM relation")

    def where_columns(self) -> frozenset[Column]:
        """Columns mentioned in the WHERE clause."""
        out: set[Column] = set()
        for atom in self.where:
            for side in (atom.left, atom.right):
                out.update(columns_in(side))
        return frozenset(out)

    def substitute(self, mapping: dict[Column, Column]) -> "QueryBlock":
        """Rename columns throughout the block (FROM occurrences included)."""
        return QueryBlock(
            select=tuple(
                SelectItem(substitute_expr(i.expr, mapping), i.alias)
                for i in self.select
            ),
            from_=tuple(
                Relation(
                    r.name,
                    tuple(mapping.get(c, c) for c in r.columns),
                    r.base_names,
                )
                for r in self.from_
            ),
            where=tuple(a.substitute(mapping) for a in self.where),
            group_by=tuple(mapping.get(c, c) for c in self.group_by),
            having=tuple(
                Comparison(
                    substitute_expr(a.left, mapping),
                    a.op,
                    substitute_expr(a.right, mapping),
                )
                for a in self.having
            ),
            distinct=self.distinct,
        )

    def with_(self, **changes) -> "QueryBlock":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "QueryBlock":
        """Check SQL validity rules; return self for chaining.

        Raises :class:`NormalizationError` on violation.
        """
        if not self.select:
            raise NormalizationError("empty SELECT list")
        if not self.from_:
            raise NormalizationError("empty FROM clause")

        all_cols: set[Column] = set()
        for rel in self.from_:
            for col in rel.columns:
                if col in all_cols:
                    raise NormalizationError(
                        f"column name {col} used by two FROM occurrences"
                    )
                all_cols.add(col)

        def check_known(expr: Expr, clause: str):
            for col in columns_in(expr):
                if col not in all_cols:
                    raise NormalizationError(
                        f"{clause} references unknown column {col}"
                    )

        for item in self.select:
            check_known(item.expr, "SELECT")
        for atom in self.where:
            for side in (atom.left, atom.right):
                if not isinstance(side, (Column, Constant)):
                    raise NormalizationError(
                        f"WHERE predicate side must be a column or constant,"
                        f" got {side}"
                    )
                check_known(side, "WHERE")
        for col in self.group_by:
            check_known(col, "GROUP BY")
        for atom in self.having:
            for side in (atom.left, atom.right):
                if not isinstance(side, (Column, Constant, Arith, Aggregate)):
                    raise NormalizationError(f"bad HAVING side: {side}")
                check_known(side, "HAVING")

        if len(set(self.group_by)) != len(self.group_by):
            raise NormalizationError("duplicate GROUP BY column")

        grouped = self._uses_grouping()
        if grouped:
            allowed = set(self.group_by)
            for item in self.select:
                self._check_group_expr(item.expr, allowed, "SELECT")
            for atom in self.having:
                self._check_group_expr(atom.left, allowed, "HAVING")
                self._check_group_expr(atom.right, allowed, "HAVING")
        elif self.having:
            raise NormalizationError("HAVING requires grouping or aggregation")
        for item in self.select:
            for agg in aggregates_in(item.expr):
                if not is_row_expr(agg.arg):
                    raise NormalizationError(
                        f"nested aggregate in {agg}"
                    )
        return self

    def _uses_grouping(self) -> bool:
        return bool(
            self.group_by
            or self.having
            or any(has_aggregate(i.expr) for i in self.select)
        )

    def _check_group_expr(self, expr: Expr, allowed: set[Column], clause: str):
        """Bare columns outside aggregates must be grouping columns."""
        if isinstance(expr, Column):
            if expr not in allowed:
                raise NormalizationError(
                    f"{clause} column {expr} is neither aggregated nor in "
                    f"GROUP BY"
                )
        elif isinstance(expr, Arith):
            self._check_group_expr(expr.left, allowed, clause)
            self._check_group_expr(expr.right, allowed, clause)
        elif isinstance(expr, Aggregate):
            if not is_row_expr(expr.arg):
                raise NormalizationError(f"nested aggregate in {expr}")

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(", ".join(str(i) for i in self.select))
        parts.append(" FROM " + ", ".join(str(r) for r in self.from_))
        if self.where:
            parts.append(" WHERE " + " AND ".join(str(a) for a in self.where))
        if self.group_by:
            parts.append(
                " GROUP BY " + ", ".join(c.name for c in self.group_by)
            )
        if self.having:
            parts.append(
                " HAVING " + " AND ".join(str(a) for a in self.having)
            )
        return "".join(parts)


@dataclass(frozen=True)
class ViewDef:
    """A named view: its definition block and output column names."""

    name: str
    block: QueryBlock
    output_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.output_names:
            object.__setattr__(
                self, "output_names", self.block.output_names()
            )
        if len(self.output_names) != len(self.block.select):
            raise NormalizationError(
                f"view {self.name}: {len(self.output_names)} output names "
                f"for {len(self.block.select)} SELECT items"
            )
        if len(set(self.output_names)) != len(self.output_names):
            raise NormalizationError(
                f"view {self.name}: duplicate output column names "
                f"{self.output_names}; add aliases"
            )

    def __str__(self) -> str:
        cols = ", ".join(self.output_names)
        return f"{self.name}({cols}) AS {self.block}"

