"""Render the SQL syntax tree back to text.

``parse(print(ast)) == ast`` round-trips for every tree the parser can
produce (property-tested in ``tests/sqlparser``) when printing in the
default :data:`ANSI` dialect — including adversarial identifiers, which
ANSI output quotes exactly when the lexer could not re-read them bare.

Every rendering decision that differs between SQL engines is delegated
to a :class:`~repro.dialects.Dialect` (identifier quoting, literal
spelling, division semantics). The dialects themselves live in
:mod:`repro.dialects`; :data:`ANSI` and :data:`SQLITE` are re-exported
here for the modules that predate that package.
"""

from __future__ import annotations

from ..dialects import ANSI, SQLITE, Dialect, get_dialect
from .ast import (
    BinOp,
    ColumnRef,
    CreateViewStmt,
    FuncCall,
    Literal,
    SelectStmt,
    SqlComparison,
    SqlExpr,
    Star,
)

__all__ = [
    "ANSI",
    "SQLITE",
    "Dialect",
    "get_dialect",
    "print_comparison",
    "print_create_view",
    "print_expr",
    "print_select",
]


def print_expr(expr: SqlExpr, dialect: Dialect = ANSI) -> str:
    if isinstance(expr, ColumnRef):
        return dialect.column(expr)
    if isinstance(expr, Literal):
        return dialect.literal(expr.value)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, FuncCall):
        return f"{expr.name}({print_expr(expr.arg, dialect)})"
    if isinstance(expr, BinOp):
        left = print_expr(expr.left, dialect)
        right = print_expr(expr.right, dialect)
        if expr.op == "/":
            return dialect.division(left, right)
        return f"({left} {expr.op} {right})"
    raise TypeError(f"not a SQL expression: {expr!r}")


def print_comparison(atom: SqlComparison, dialect: Dialect = ANSI) -> str:
    left = print_expr(atom.left, dialect)
    right = print_expr(atom.right, dialect)
    return f"{left} {atom.op} {right}"


def print_select(stmt: SelectStmt, dialect: Dialect = ANSI) -> str:
    lines: list[str] = []
    head = "SELECT DISTINCT " if stmt.distinct else "SELECT "
    items = []
    for item in stmt.items:
        rendered = print_expr(item.expr, dialect)
        if item.alias:
            rendered += f" AS {dialect.ident(item.alias)}"
        items.append(rendered)
    lines.append(head + ", ".join(items))

    tables = []
    for ref in stmt.from_tables:
        rendered = dialect.ident(ref.name)
        if ref.alias:
            rendered += f" AS {dialect.ident(ref.alias)}"
        tables.append(rendered)
    lines.append("FROM " + ", ".join(tables))

    if stmt.where:
        lines.append(
            "WHERE "
            + " AND ".join(print_comparison(a, dialect) for a in stmt.where)
        )
    if stmt.group_by:
        lines.append(
            "GROUP BY " + ", ".join(dialect.column(c) for c in stmt.group_by)
        )
    if stmt.having:
        lines.append(
            "HAVING "
            + " AND ".join(print_comparison(a, dialect) for a in stmt.having)
        )
    return "\n".join(lines)


def print_create_view(stmt: CreateViewStmt, dialect: Dialect = ANSI) -> str:
    header = f"CREATE VIEW {dialect.ident(stmt.name)}"
    if stmt.columns:
        header += " (" + ", ".join(dialect.ident(c) for c in stmt.columns) + ")"
    return header + " AS\n" + print_select(stmt.select, dialect=dialect)
