"""Syntax tree for the single-block SQL dialect.

This tree mirrors the SQL *text* (qualified names, aliases), before the
paper's unique-column renaming. :mod:`repro.blocks.normalize` converts it
into a :class:`~repro.blocks.query_block.QueryBlock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class ColumnRef:
    """``name`` or ``qualifier.name``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Literal:
    value: Union[int, float, str]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class Star:
    """``*`` inside ``COUNT(*)``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class FuncCall:
    """An aggregate function application."""

    name: str  # upper-cased: MIN/MAX/SUM/COUNT/AVG
    arg: "SqlExpr"

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class BinOp:
    """Arithmetic: ``left op right`` with op in ``+ - * /``."""

    op: str
    left: "SqlExpr"
    right: "SqlExpr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


SqlExpr = Union[ColumnRef, Literal, Star, FuncCall, BinOp]


@dataclass(frozen=True)
class SqlComparison:
    """``left op right`` with op in ``< <= = >= > <>``."""

    left: SqlExpr
    op: str
    right: SqlExpr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class SelectItemSyntax:
    expr: SqlExpr
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class SelectStmt:
    """One SELECT-FROM-WHERE-GROUPBY-HAVING block."""

    items: tuple[SelectItemSyntax, ...]
    from_tables: tuple[TableRef, ...]
    where: tuple[SqlComparison, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    having: tuple[SqlComparison, ...] = ()
    distinct: bool = False

    def __str__(self) -> str:
        from .printer import print_select

        return print_select(self)


@dataclass(frozen=True)
class CreateTableStmt:
    """``CREATE TABLE name (col type..., PRIMARY KEY (...), UNIQUE (...))``.

    Column types are recorded but uninterpreted (the engine is dynamically
    typed, as is the paper's data model).
    """

    name: str
    columns: tuple[str, ...]
    column_types: tuple[str, ...]
    primary_key: tuple[str, ...] = ()
    uniques: tuple[tuple[str, ...], ...] = ()

    def __str__(self) -> str:
        pieces = []
        for col, typ in zip(self.columns, self.column_types):
            piece = col if not typ else f"{col} {typ}"
            if self.primary_key == (col,):
                piece += " PRIMARY KEY"
            pieces.append(piece)
        if len(self.primary_key) > 1:
            pieces.append("PRIMARY KEY (" + ", ".join(self.primary_key) + ")")
        for unique in self.uniques:
            pieces.append("UNIQUE (" + ", ".join(unique) + ")")
        return f"CREATE TABLE {self.name} (" + ", ".join(pieces) + ")"


@dataclass(frozen=True)
class CreateViewStmt:
    """``CREATE VIEW name [(col, ...)] AS select``."""

    name: str
    columns: tuple[str, ...]
    select: SelectStmt

    def __str__(self) -> str:
        from .printer import print_create_view

        return print_create_view(self)
