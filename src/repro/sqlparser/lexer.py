"""Lexer for the single-block SQL dialect: one compiled pattern.

Each alternative of ``_TOKEN`` is one token class, tried in order at the
current position; the loop in :func:`tokenize` branches on ``lastgroup``.
The classes match the rules below, which ``tests/sqlparser`` pins with a
golden of token streams and error positions:

- whitespace is ``str.isspace()``; only ``\\n`` starts a new line;
- ``--`` comments run to the end of the line;
- an identifier starts with a character passing ``isalpha()`` or ``_``
  and continues with ``isalnum()``, ``_`` or ``$`` (``\\w`` is exactly
  ``isalnum() or '_'``), so ``¹``, ``Ⅻ`` and ``٣`` start no token;
- numbers are ASCII digits with at most one decimal point that must be
  followed by a digit (``1.5.3`` is ``1.5`` then ``.3``);
- ``'...'`` strings and ``"..."`` delimited identifiers escape their
  quote by doubling it, so ``'''`` is unterminated; both may span lines.
"""

from __future__ import annotations

import re

from ..errors import SQLSyntaxError
from .tokens import COMMA, DOT, EOF, IDENT, KEYWORD, KEYWORDS, LPAREN, NUMBER, OP
from .tokens import RPAREN, SEMI, STAR, STRING, Token

_TOKEN = re.compile(
    r"""
    [^\S\n]*                     # blanks before the token
    (?:
      (?P<WORD>[^\W0-9][\w$]*)
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)
    | (?P<PUNCT>[,.()*;])
    | (?P<NEWLINE>\n)
    | (?P<COMMENT>--[^\n]*)
    | (?P<OP><=|>=|<>|!=|[<>=+\-/])
    | (?P<QUOTED>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
    | (?P<BAD>.)                  # an unclosed quote, a lone '!', a stray character
    | \Z
    )
    """,
    re.VERBOSE,
)

_PUNCT = {
    ",": COMMA,
    ".": DOT,
    "(": LPAREN,
    ")": RPAREN,
    "*": STAR,
    ";": SEMI,
}
_QUOTED = {"'": STRING, '"': IDENT}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind is None:  # trailing blanks
            break
        raw = m[kind]
        col = pos - len(raw) - line_start + 1
        if kind == "WORD":
            # [^\W0-9] admits every ASCII letter and '_', but beyond
            # ASCII also digits and numerals ('٣', '¹', 'Ⅻ') that are
            # not letters: those start no token.
            if raw[0] > "z" and not raw[0].isalpha():
                raise SQLSyntaxError(f"unexpected character {raw[0]!r}", line, col)
            upper = raw.upper()
            if upper in KEYWORDS:
                append(Token(KEYWORD, upper, line, col))
            else:
                append(Token(IDENT, raw, line, col))
        elif kind == "PUNCT":
            append(Token(_PUNCT[raw], raw, line, col))
        elif kind == "OP":
            append(Token(OP, "<>" if raw == "!=" else raw, line, col))
        elif kind == "NUMBER":
            value = float(raw) if "." in raw else int(raw)
            append(Token(NUMBER, value, line, col))
        elif kind == "NEWLINE":
            line += 1
            line_start = pos
        elif kind == "QUOTED":
            # A '...' string, or a "..." delimited identifier: never a
            # keyword, whatever it spells — this is how dialect-emitted
            # SQL round-trips adversarial names (see repro.dialects).
            quote = raw[0]
            value = raw[1:-1].replace(quote + quote, quote)
            append(Token(_QUOTED[quote], value, line, col))
            if "\n" in raw:  # later positions count the lines it spans
                line += raw.count("\n")
                line_start = pos - len(raw) + raw.rindex("\n") + 1
        elif kind == "BAD":
            message = _UNTERMINATED.get(raw, f"unexpected character {raw!r}")
            raise SQLSyntaxError(message, line, col)
        # A COMMENT needs nothing.
    tokens.append(Token(EOF, "", line, pos - line_start + 1))
    return tokens
