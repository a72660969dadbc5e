"""Convert a parsed SELECT statement into a normalized QueryBlock.

Implements the paper's Section 2 naming convention: every column of every
FROM-clause occurrence receives a globally unique name, and all references
in SELECT / WHERE / GROUP BY / HAVING are resolved to those unique columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..errors import NormalizationError, SchemaError, UnsupportedSQLError

if TYPE_CHECKING:  # avoid a circular import; Catalog is duck-typed here
    from ..catalog.schema import Catalog
from ..sqlparser.ast import (
    BinOp,
    ColumnRef,
    CreateViewStmt,
    FuncCall,
    Literal,
    SelectStmt,
    SqlExpr,
    Star,
)
from ..sqlparser.parser import parse_select, parse_statement
from .exprs import AggFunc, Aggregate, Arith, ArithOp, Expr
from .naming import FreshNames
from .query_block import QueryBlock, Relation, SelectItem, ViewDef
from .terms import Column, Comparison, Constant, Op


class _Scope:
    """Column resolution context for one SELECT statement."""

    def __init__(self, stmt: SelectStmt, catalog: Catalog):
        self.relations: list[Relation] = []
        self._by_qualifier: dict[str, Relation] = {}
        namer = FreshNames()
        for ref in stmt.from_tables:
            base_names = catalog.columns_of(ref.name)
            relation = Relation(
                name=ref.name,
                columns=namer.columns(base_names),
                base_names=tuple(base_names),
            )
            self.relations.append(relation)
            qualifier = ref.alias or ref.name
            if qualifier in self._by_qualifier:
                raise NormalizationError(
                    f"FROM clause uses the name {qualifier!r} twice; give "
                    f"each occurrence a distinct alias"
                )
            self._by_qualifier[qualifier] = relation

    def resolve(self, ref: ColumnRef) -> Column:
        if ref.qualifier is not None:
            relation = self._by_qualifier.get(ref.qualifier)
            if relation is None:
                raise SchemaError(
                    f"unknown table or alias {ref.qualifier!r} in reference "
                    f"{ref}"
                )
            if ref.name not in relation.base_names:
                raise SchemaError(
                    f"table {relation.name} has no column {ref.name!r}"
                )
            return relation.column_for(ref.name)

        owners = [
            rel for rel in self.relations if ref.name in rel.base_names
        ]
        if not owners:
            raise SchemaError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise NormalizationError(
                f"ambiguous column {ref.name!r}: qualify it with a table "
                f"name or alias"
            )
        return owners[0].column_for(ref.name)


def _normalize_expr(expr: SqlExpr, scope: _Scope) -> Expr:
    if isinstance(expr, ColumnRef):
        return scope.resolve(expr)
    if isinstance(expr, Literal):
        return Constant(expr.value)
    if isinstance(expr, Star):
        # COUNT(*) counts rows; with no NULLs in the data model it equals
        # COUNT(c) for any column, so normalize to the first FROM column.
        return scope.relations[0].columns[0]
    if isinstance(expr, FuncCall):
        func = AggFunc(expr.name)
        return Aggregate(func, _normalize_expr(expr.arg, scope))
    if isinstance(expr, BinOp):
        return Arith(
            ArithOp(expr.op),
            _normalize_expr(expr.left, scope),
            _normalize_expr(expr.right, scope),
        )
    raise NormalizationError(f"cannot normalize expression {expr!r}")


def _normalize_where_atom(atom, scope: _Scope) -> Comparison:
    left = _normalize_expr(atom.left, scope)
    right = _normalize_expr(atom.right, scope)
    for side in (left, right):
        if not isinstance(side, (Column, Constant)):
            raise UnsupportedSQLError(
                "WHERE predicates must compare columns and constants "
                f"(paper Section 2); got {side}"
            )
    return Comparison(left, Op(atom.op), right)


def _normalize_having_atom(atom, scope: _Scope) -> Comparison:
    left = _normalize_expr(atom.left, scope)
    right = _normalize_expr(atom.right, scope)
    return Comparison(left, Op(atom.op), right)


def normalize_select(stmt: SelectStmt, catalog: Catalog) -> QueryBlock:
    """Resolve names and produce a validated :class:`QueryBlock`."""
    scope = _Scope(stmt, catalog)
    select = tuple(
        SelectItem(_normalize_expr(item.expr, scope), item.alias)
        for item in stmt.items
    )
    where = tuple(_normalize_where_atom(a, scope) for a in stmt.where)
    group_by = tuple(scope.resolve(ref) for ref in stmt.group_by)
    having = tuple(_normalize_having_atom(a, scope) for a in stmt.having)
    block = QueryBlock(
        select=select,
        from_=tuple(scope.relations),
        where=where,
        group_by=group_by,
        having=having,
        distinct=stmt.distinct,
    )
    return block.validate()


def parse_query(sql: str, catalog: Catalog) -> QueryBlock:
    """Parse SQL text and normalize it against ``catalog``."""
    return normalize_select(parse_select(sql), catalog)


def parse_view(sql: str, catalog: Catalog, name: Optional[str] = None) -> ViewDef:
    """Parse a view definition.

    Accepts either ``CREATE VIEW name [(cols)] AS SELECT ...`` or a bare
    SELECT plus an explicit ``name`` argument.
    """
    stmt = parse_statement(sql)
    if isinstance(stmt, CreateViewStmt):
        block = normalize_select(stmt.select, catalog)
        view_name = name or stmt.name
        output_names = stmt.columns or block.output_names()
        return ViewDef(view_name, block, tuple(output_names))
    if name is None:
        raise NormalizationError(
            "a bare SELECT view definition needs an explicit name"
        )
    block = normalize_select(stmt, catalog)
    return ViewDef(name, block)


StatementLike = Union[str, SelectStmt, QueryBlock]


def as_block(query: StatementLike, catalog: Catalog) -> QueryBlock:
    """Coerce SQL text, a parsed statement or a block to a QueryBlock."""
    if isinstance(query, QueryBlock):
        return query
    if isinstance(query, SelectStmt):
        return normalize_select(query, catalog)
    return parse_query(query, catalog)
