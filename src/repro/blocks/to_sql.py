"""Render a QueryBlock back to SQL text, in any registered dialect.

The unique column names of the normalized form are translated back to
``alias.base_column`` references; each FROM occurrence gets an alias when
its relation name is not already unique in the FROM clause.

``dialect`` accepts a :class:`~repro.dialects.Dialect` instance or a
registry name (``"ansi"``, ``"sqlite"``, ``"duckdb"``, ``"postgres"``):

>>> block_to_sql(block, dialect="postgres")   # doctest: +SKIP
"""

from __future__ import annotations

from collections import Counter

from ..errors import NormalizationError
from ..sqlparser.ast import (
    BinOp,
    ColumnRef,
    FuncCall,
    Literal,
    SelectItemSyntax,
    SelectStmt,
    SqlComparison,
    SqlExpr,
    TableRef,
)
from ..dialects import ANSI, DialectLike, get_dialect
from ..sqlparser.printer import print_create_view, print_select
from .exprs import Aggregate, Arith, Expr
from .query_block import QueryBlock, ViewDef
from .terms import Column, Comparison, Constant


def block_to_ast(block: QueryBlock) -> SelectStmt:
    """Convert a QueryBlock to a printable SQL syntax tree."""
    name_counts = Counter(rel.name for rel in block.from_)
    qualifiers: dict[int, str] = {}
    tables: list[TableRef] = []
    seen: Counter = Counter()
    for i, rel in enumerate(block.from_):
        if name_counts[rel.name] == 1:
            qualifiers[i] = rel.name
            tables.append(TableRef(rel.name))
        else:
            seen[rel.name] += 1
            alias = f"{rel.name.lower()}_{seen[rel.name]}"
            qualifiers[i] = alias
            tables.append(TableRef(rel.name, alias))

    col_to_ref: dict[Column, ColumnRef] = {}
    for i, rel in enumerate(block.from_):
        for col, base in zip(rel.columns, rel.base_names):
            col_to_ref[col] = ColumnRef(base, qualifier=qualifiers[i])

    def expr_to_ast(expr: Expr) -> SqlExpr:
        if isinstance(expr, Column):
            try:
                return col_to_ref[expr]
            except KeyError:
                raise NormalizationError(
                    f"column {expr} not bound to a FROM occurrence"
                ) from None
        if isinstance(expr, Constant):
            return Literal(expr.value)
        if isinstance(expr, Arith):
            return BinOp(
                expr.op.value, expr_to_ast(expr.left), expr_to_ast(expr.right)
            )
        if isinstance(expr, Aggregate):
            return FuncCall(expr.func.value, expr_to_ast(expr.arg))
        raise NormalizationError(f"cannot render expression {expr!r}")

    def atom_to_ast(atom: Comparison) -> SqlComparison:
        return SqlComparison(
            expr_to_ast(atom.left), atom.op.value, expr_to_ast(atom.right)
        )

    items = tuple(
        SelectItemSyntax(expr_to_ast(item.expr), item.alias)
        for item in block.select
    )
    return SelectStmt(
        items=items,
        from_tables=tuple(tables),
        where=tuple(atom_to_ast(a) for a in block.where),
        group_by=tuple(
            col_to_ref[c]
            if c in col_to_ref
            else ColumnRef(c.name)
            for c in block.group_by
        ),
        having=tuple(atom_to_ast(a) for a in block.having),
        distinct=block.distinct,
    )


def block_to_sql(block: QueryBlock, dialect: DialectLike = ANSI) -> str:
    """Render a QueryBlock as SQL text in the given dialect (or name).

    The default-dialect text is printed at most once per block and kept
    on it, like its hash (and, like its hash, never pickled).
    """
    dialect = get_dialect(dialect)
    if dialect is not ANSI:
        return print_select(block_to_ast(block), dialect=dialect)
    try:
        return object.__getattribute__(block, "_cached_sql")
    except AttributeError:
        text = print_select(block_to_ast(block), dialect=ANSI)
        object.__setattr__(block, "_cached_sql", text)
        return text


def view_to_sql(view: ViewDef, dialect: DialectLike = ANSI) -> str:
    """Render a ViewDef as ``CREATE VIEW ... AS SELECT ...`` text."""
    from ..sqlparser.ast import CreateViewStmt

    stmt = CreateViewStmt(
        view.name, tuple(view.output_names), block_to_ast(view.block)
    )
    return print_create_view(stmt, dialect=get_dialect(dialect))
