"""Lexer unit tests."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sqlparser import tokens as tokens_module
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.parser import parse_select
from repro.sqlparser.tokens import TokenType


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.value == "SELECT" for t in tokens[:-1])
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        assert values("Plan_Id calls xYz") == ["Plan_Id", "calls", "xYz"]

    def test_eof_always_appended(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("a b")[-1].type is TokenType.EOF

    def test_punctuation(self):
        assert kinds("( ) , . ; *")[:-1] == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.DOT,
            TokenType.SEMI,
            TokenType.STAR,
        ]


class TestNumbers:
    def test_integer(self):
        assert values("42") == [42]
        assert isinstance(values("42")[0], int)

    def test_float(self):
        assert values("3.25") == [3.25]
        assert isinstance(values("3.25")[0], float)

    def test_leading_dot_float(self):
        assert values(".5") == [0.5]

    def test_qualified_name_not_float(self):
        # "t1.A" must lex as IDENT DOT IDENT, not a malformed number.
        assert kinds("t1.A")[:-1] == [
            TokenType.IDENT,
            TokenType.DOT,
            TokenType.IDENT,
        ]

    def test_number_then_dot_then_ident(self):
        assert kinds("1.x")[:-1] == [
            TokenType.NUMBER,
            TokenType.DOT,
            TokenType.IDENT,
        ]


class TestStrings:
    def test_simple_string(self):
        assert values("'hello'") == ["hello"]

    def test_escaped_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_empty_string(self):
        assert values("''") == [""]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")


class TestOperators:
    def test_comparison_operators(self):
        assert values("< <= = >= > <>") == ["<", "<=", "=", ">=", ">", "<>"]

    def test_bang_equals_normalized(self):
        assert values("a != b") == ["a", "<>", "b"]

    def test_arithmetic(self):
        assert values("+ - /") == ["+", "-", "/"]

    def test_lone_bang_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("a ! b")


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("a -- comment here\n b") == ["a", "b"]

    def test_newlines_tracked(self):
        tokens = tokenize("a\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_column_positions(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("a @ b")
        assert "@" in str(excinfo.value)

    def test_error_carries_position(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("abc\n  @")
        assert excinfo.value.line == 2


class TestMultilineLiterals:
    """A quoted token spanning lines moves every later position."""

    def test_string_literal_counts_its_newlines(self):
        tokens = tokenize("SELECT 'a\nb' FROM\nT")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1),
            ("a\nb", 1, 8),
            ("FROM", 2, 4),
            ("T", 3, 1),
            ("", 3, 2),
        ]

    def test_string_literal_matches_quoted_identifier(self):
        literal = tokenize("SELECT 'a\nb' FROM\nT")
        quoted = tokenize('SELECT "a\nb" FROM\nT')
        assert [(t.line, t.column) for t in literal] == [
            (t.line, t.column) for t in quoted
        ]

    def test_error_after_multiline_literal_reports_its_line(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            parse_select("SELECT 'a\nb' FROM T WHERE x = 1 @")
        assert (excinfo.value.line, excinfo.value.column) == (2, 23)
        assert "(line 2, column 23)" in str(excinfo.value)


class TestTokenConstants:
    def test_module_constants_are_the_members(self):
        for member in TokenType:
            assert getattr(tokens_module, member.name) is member
