"""Token definitions for the single-block SQL dialect."""

from __future__ import annotations

import enum
from typing import Union


class TokenType(enum.Enum):
    IDENT = "IDENT"          # bare identifier (table, column, alias)
    KEYWORD = "KEYWORD"      # reserved word, upper-cased
    NUMBER = "NUMBER"        # integer or float literal
    STRING = "STRING"        # single-quoted string literal
    OP = "OP"                # comparison or arithmetic operator
    COMMA = "COMMA"
    DOT = "DOT"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    STAR = "STAR"            # '*' (either multiplication or COUNT(*))
    SEMI = "SEMI"
    EOF = "EOF"


#: The members as module constants, in definition order. Reading
#: ``TokenType.X`` is a descriptor call on Python 3.11, and the lexer and
#: parser compare token types a few hundred times per statement.
IDENT, KEYWORD, NUMBER, STRING, OP, COMMA, DOT, LPAREN, RPAREN, STAR, SEMI, EOF = TokenType

#: Reserved words recognized by the lexer (always upper-cased).
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "GROUPBY",
        "HAVING",
        "AND",
        "AS",
        "CREATE",
        "VIEW",
        "TABLE",
        "PRIMARY",
        "KEY",
        "UNIQUE",
        "OR",
        "NOT",
        "IN",
        "EXISTS",
        "UNION",
        "JOIN",
        "ON",
        "ORDER",
        "LIMIT",
    }
)

#: Aggregate function names (treated as identifiers by the lexer; the
#: parser recognizes them by name).
AGG_NAMES = frozenset({"MIN", "MAX", "SUM", "COUNT", "AVG"})


class Token:
    """One lexed token; a slotted class because the lexer builds one per
    word, and a frozen dataclass pays ``object.__setattr__`` per field."""

    __slots__ = ("type", "value", "line", "column")

    def __init__(
        self, type: TokenType, value: Union[str, int, float], line: int, column: int
    ):
        self.type = type
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, value={self.value!r}, "
            f"line={self.line!r}, column={self.column!r})"
        )

    def __str__(self) -> str:
        return f"{self.type.name}({self.value!r})"
