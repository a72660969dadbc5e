"""Recursive-descent parser for the single-block SQL dialect.

Grammar (conjunctive conditions only, per the paper's Section 2):

.. code-block:: text

    statement   := select | create_view
    create_view := CREATE VIEW ident [ '(' ident (',' ident)* ')' ] AS select
    select      := SELECT [DISTINCT] item (',' item)*
                   FROM table_ref (',' table_ref)*
                   [WHERE comparison (AND comparison)*]
                   [GROUP BY column_ref (',' column_ref)*]
                   [HAVING comparison (AND comparison)*] [';']
    item        := expr [[AS] ident]
    table_ref   := ident [[AS] ident]
    comparison  := expr ('<'|'<='|'='|'>='|'>'|'<>') expr
    expr        := term (('+'|'-') term)*
    term        := factor (('*'|'/') factor)*
    factor      := NUMBER | STRING | '-' factor | '(' expr ')'
                 | agg '(' (expr | '*') ')' | column_ref
    column_ref  := ident ['.' ident]

OR, NOT, subqueries, joins and set operators raise
:class:`~repro.errors.UnsupportedSQLError` with a pointer to the paper's
restriction rather than a generic syntax error.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import SQLSyntaxError, UnsupportedSQLError
from .ast import (
    BinOp,
    ColumnRef,
    CreateTableStmt,
    CreateViewStmt,
    FuncCall,
    Literal,
    SelectItemSyntax,
    SelectStmt,
    SqlComparison,
    SqlExpr,
    Star,
    TableRef,
)
from .lexer import tokenize
from .tokens import AGG_NAMES, COMMA, DOT, EOF, IDENT, KEYWORD, LPAREN, NUMBER, OP
from .tokens import RPAREN, SEMI, STAR, STRING, Token, TokenType

Statement = Union["SelectStmt", "CreateViewStmt", "CreateTableStmt"]

_COMPARISON_OPS = frozenset({"<", "<=", "=", ">=", ">", "<>"})
_UNSUPPORTED = {
    "OR": "disjunction (the paper studies conjunctions of predicates)",
    "NOT": "negation (the paper studies conjunctions of predicates)",
    "IN": "subqueries (single-block queries only)",
    "EXISTS": "subqueries (single-block queries only)",
    "UNION": "set operators (single-block queries only)",
    "JOIN": "explicit JOIN syntax (use comma-separated FROM with WHERE)",
    "ORDER": "ORDER BY (multiset results are unordered)",
    "LIMIT": "LIMIT",
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def check(self, type_: TokenType, value: Optional[str] = None) -> bool:
        token = self.tokens[self.pos]
        return token.type is type_ and (value is None or token.value == value)

    def accept(self, type_: TokenType, value: Optional[str] = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.type is type_ and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, type_: TokenType, value: Optional[str] = None) -> Token:
        token = self.tokens[self.pos]
        if token.type is type_ and (value is None or token.value == value):
            self.pos += 1
            return token
        wanted = value or type_.name
        raise SQLSyntaxError(
            f"expected {wanted}, found {token.value!r}", token.line, token.column
        )

    def keyword(self, word: str) -> bool:
        return bool(self.accept(KEYWORD, word))

    def reject_unsupported(self):
        token = self.tokens[self.pos]
        if token.type is KEYWORD and token.value in _UNSUPPORTED:
            raise UnsupportedSQLError(
                f"{token.value} is not supported: {_UNSUPPORTED[token.value]}"
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> Statement:
        stmt = self.parse_statement_only()
        self.accept(SEMI)
        self.expect(EOF)
        return stmt

    def parse_statement_only(self) -> Statement:
        """One statement, leaving any trailing tokens unconsumed."""
        if self.keyword("CREATE"):
            if self.check(KEYWORD, "TABLE"):
                return self.parse_create_table()
            return self.parse_create_view()
        return self.parse_select()

    def parse_create_table(self) -> CreateTableStmt:
        self.expect(KEYWORD, "TABLE")
        name = str(self.expect(IDENT).value)
        self.expect(LPAREN)
        columns: list[str] = []
        types: list[str] = []
        primary_key: tuple[str, ...] = ()
        uniques: list[tuple[str, ...]] = []

        def parse_column_list() -> tuple[str, ...]:
            self.expect(LPAREN)
            cols = [str(self.expect(IDENT).value)]
            while self.accept(COMMA):
                cols.append(str(self.expect(IDENT).value))
            self.expect(RPAREN)
            return tuple(cols)

        while True:
            if self.keyword("PRIMARY"):
                self.expect(KEYWORD, "KEY")
                if primary_key:
                    raise SQLSyntaxError(
                        f"table {name}: duplicate PRIMARY KEY clause"
                    )
                primary_key = parse_column_list()
            elif self.keyword("UNIQUE"):
                uniques.append(parse_column_list())
            else:
                column = str(self.expect(IDENT).value)
                type_words: list[str] = []
                # Tolerant type parsing: identifiers plus an optional
                # parenthesized length, e.g. VARCHAR(30) or DOUBLE PRECISION.
                while word := self.accept(IDENT):
                    type_words.append(word.value)
                    if self.accept(LPAREN):
                        length = self.expect(NUMBER).value
                        self.expect(RPAREN)
                        type_words[-1] += f"({length})"
                columns.append(column)
                types.append(" ".join(type_words))
                if self.keyword("PRIMARY"):
                    self.expect(KEYWORD, "KEY")
                    if primary_key:
                        raise SQLSyntaxError(
                            f"table {name}: duplicate PRIMARY KEY clause"
                        )
                    primary_key = (column,)
                elif self.keyword("UNIQUE"):
                    uniques.append((column,))
            if not self.accept(COMMA):
                break
        self.expect(RPAREN)
        return CreateTableStmt(
            name=name,
            columns=tuple(columns),
            column_types=tuple(types),
            primary_key=primary_key,
            uniques=tuple(uniques),
        )

    def parse_create_view(self) -> CreateViewStmt:
        self.expect(KEYWORD, "VIEW")
        name = self.expect(IDENT).value
        columns: list[str] = []
        if self.accept(LPAREN):
            columns.append(self.expect(IDENT).value)
            while self.accept(COMMA):
                columns.append(self.expect(IDENT).value)
            self.expect(RPAREN)
        self.expect(KEYWORD, "AS")
        select = self.parse_select()
        return CreateViewStmt(str(name), tuple(map(str, columns)), select)

    def parse_select(self) -> SelectStmt:
        self.expect(KEYWORD, "SELECT")
        distinct = self.keyword("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept(COMMA):
            items.append(self.parse_select_item())

        self.expect(KEYWORD, "FROM")
        tables = [self.parse_table_ref()]
        while self.accept(COMMA):
            tables.append(self.parse_table_ref())
        self.reject_unsupported()

        where: list[SqlComparison] = []
        if self.keyword("WHERE"):
            where = self.parse_conjunction()

        group_by: list[ColumnRef] = []
        if self.keyword("GROUPBY") or (
            self.keyword("GROUP") and (self.expect(KEYWORD, "BY") or True)
        ):
            group_by.append(self.parse_column_ref())
            while self.accept(COMMA):
                group_by.append(self.parse_column_ref())

        having: list[SqlComparison] = []
        if self.keyword("HAVING"):
            having = self.parse_conjunction()

        self.reject_unsupported()
        return SelectStmt(
            items=tuple(items),
            from_tables=tuple(tables),
            where=tuple(where),
            group_by=tuple(group_by),
            having=tuple(having),
            distinct=distinct,
        )

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------

    def parse_column_ref(self) -> ColumnRef:
        name = str(self.expect(IDENT).value)
        if self.accept(DOT):
            column = str(self.expect(IDENT).value)
            return ColumnRef(column, qualifier=name)
        return ColumnRef(name)

    def parse_select_item(self) -> SelectItemSyntax:
        return SelectItemSyntax(self.parse_expr(), self.parse_alias())

    def parse_alias(self) -> Optional[str]:
        """``[AS] ident``, or None when no alias follows."""
        if self.keyword("AS"):
            return self.expect(IDENT).value
        token = self.accept(IDENT)
        return None if token is None else token.value

    def parse_table_ref(self) -> TableRef:
        if self.check(LPAREN):
            after = self.tokens[self.pos + 1]
            if after.type is KEYWORD and after.value == "SELECT":
                raise UnsupportedSQLError(
                    "SELECT in FROM is not supported: FROM-clause "
                    "subqueries (single-block queries only)"
                )
        name = str(self.expect(IDENT).value)
        return TableRef(name, self.parse_alias())

    def parse_conjunction(self) -> list[SqlComparison]:
        atoms = [self.parse_comparison()]
        while self.keyword("AND"):
            atoms.append(self.parse_comparison())
        self.reject_unsupported()
        return atoms

    def parse_comparison(self) -> SqlComparison:
        left = self.parse_expr()
        token = self.tokens[self.pos]
        if token.type is OP and token.value in _COMPARISON_OPS:
            self.pos += 1
            return SqlComparison(left, token.value, self.parse_expr())
        self.reject_unsupported()
        raise SQLSyntaxError(
            f"expected comparison operator, found {token.value!r}",
            token.line,
            token.column,
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> SqlExpr:
        expr = self.parse_term()
        while True:
            token = self.tokens[self.pos]
            if token.type is not OP or token.value not in ("+", "-"):
                return expr
            self.pos += 1
            expr = BinOp(token.value, expr, self.parse_term())

    def parse_term(self) -> SqlExpr:
        expr = self.parse_factor()
        while True:
            token = self.tokens[self.pos]
            if token.type is STAR:
                op = "*"
            elif token.type is OP and token.value == "/":
                op = "/"
            else:
                return expr
            self.pos += 1
            expr = BinOp(op, expr, self.parse_factor())

    def parse_factor(self) -> SqlExpr:
        token = self.tokens[self.pos]
        type_ = token.type
        if type_ is IDENT:
            self.pos += 1
            name = token.value
            following = self.tokens[self.pos].type
            if following is LPAREN:
                if name.upper() not in AGG_NAMES:
                    raise UnsupportedSQLError(
                        f"function {name} is not supported (aggregates only: "
                        f"MIN, MAX, SUM, COUNT, AVG)"
                    )
                self.pos += 1
                arg: SqlExpr
                if self.accept(STAR):
                    arg = Star()
                else:
                    arg = self.parse_expr()
                self.expect(RPAREN)
                return FuncCall(name.upper(), arg)
            if following is DOT:
                self.pos += 1
                column = str(self.expect(IDENT).value)
                return ColumnRef(column, qualifier=name)
            return ColumnRef(name)
        if type_ is NUMBER:
            self.pos += 1
            return Literal(token.value)
        if type_ is STRING:
            self.pos += 1
            return Literal(token.value)
        if type_ is OP and token.value == "-":
            self.pos += 1
            inner = self.parse_factor()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return BinOp("-", Literal(0), inner)
        if type_ is LPAREN:
            self.pos += 1
            expr = self.parse_expr()
            self.expect(RPAREN)
            return expr
        self.reject_unsupported()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r}", token.line, token.column
        )


def parse_select(text: str) -> SelectStmt:
    """Parse a single SELECT statement."""
    stmt = _Parser(text).parse_statement()
    if not isinstance(stmt, SelectStmt):
        raise SQLSyntaxError("expected a SELECT statement")
    return stmt


def parse_statement(text: str) -> Statement:
    """Parse one statement: SELECT, CREATE VIEW or CREATE TABLE."""
    return _Parser(text).parse_statement()


def parse_script(text: str) -> list[Statement]:
    """Parse a ';'-separated script of statements."""
    parser = _Parser(text)
    out: list[Statement] = []
    while not parser.check(EOF):
        out.append(parser.parse_statement_only())
        if not parser.accept(SEMI):
            break
    parser.expect(EOF)
    return out
