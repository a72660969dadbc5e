"""Parser unit tests: statement shapes, precedence, unsupported features."""

import pytest

from repro.errors import SQLSyntaxError, UnsupportedSQLError
from repro.sqlparser.ast import (
    BinOp,
    ColumnRef,
    CreateViewStmt,
    FuncCall,
    Literal,
    SelectStmt,
    Star,
)
from repro.sqlparser.parser import parse_select, parse_statement


class TestSelectShape:
    def test_minimal(self):
        stmt = parse_select("SELECT a FROM t")
        assert stmt.items[0].expr == ColumnRef("a")
        assert stmt.from_tables[0].name == "t"
        assert not stmt.where and not stmt.group_by and not stmt.having
        assert not stmt.distinct

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_multiple_items_and_tables(self):
        stmt = parse_select("SELECT a, b, c FROM t, u, v")
        assert len(stmt.items) == 3
        assert [t.name for t in stmt.from_tables] == ["t", "u", "v"]

    def test_table_alias_with_and_without_as(self):
        stmt = parse_select("SELECT a FROM t AS x, u y")
        assert stmt.from_tables[0].alias == "x"
        assert stmt.from_tables[1].alias == "y"

    def test_select_alias(self):
        stmt = parse_select("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_qualified_columns(self):
        stmt = parse_select("SELECT t.a FROM t WHERE t.a = u.b")
        assert stmt.items[0].expr == ColumnRef("a", qualifier="t")
        assert stmt.where[0].right == ColumnRef("b", qualifier="u")

    def test_trailing_semicolon(self):
        parse_select("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM t nonsense extra")


class TestClauses:
    def test_where_conjunction(self):
        stmt = parse_select("SELECT a FROM t WHERE a = 1 AND b < 2 AND c <> d")
        assert [a.op for a in stmt.where] == ["=", "<", "<>"]

    def test_group_by_two_words(self):
        stmt = parse_select("SELECT a FROM t GROUP BY a, b")
        assert [c.name for c in stmt.group_by] == ["a", "b"]

    def test_groupby_one_word(self):
        # The paper typesets GROUPBY as one token.
        stmt = parse_select("SELECT a FROM t GROUPBY a")
        assert [c.name for c in stmt.group_by] == ["a"]

    def test_having(self):
        stmt = parse_select(
            "SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) >= 10 AND a > 0"
        )
        assert len(stmt.having) == 2
        assert isinstance(stmt.having[0].left, FuncCall)


class TestExpressions:
    def test_aggregates(self):
        stmt = parse_select("SELECT MIN(a), max(b), Sum(c), COUNT(d), AVG(e) FROM t")
        names = [item.expr.name for item in stmt.items]
        assert names == ["MIN", "MAX", "SUM", "COUNT", "AVG"]

    def test_count_star(self):
        stmt = parse_select("SELECT COUNT(*) FROM t")
        assert isinstance(stmt.items[0].expr.arg, Star)

    def test_arithmetic_precedence(self):
        stmt = parse_select("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_parentheses_override(self):
        stmt = parse_select("SELECT (a + b) * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "*" and expr.left.op == "+"

    def test_negative_literal(self):
        stmt = parse_select("SELECT a FROM t WHERE a > -5")
        assert stmt.where[0].right == Literal(-5)

    def test_string_literal(self):
        stmt = parse_select("SELECT a FROM t WHERE b = 'x''y'")
        assert stmt.where[0].right == Literal("x'y")

    def test_aggregate_of_product(self):
        stmt = parse_select("SELECT SUM(n * e) FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, FuncCall) and isinstance(agg.arg, BinOp)


class TestCreateView:
    def test_with_columns(self):
        stmt = parse_statement(
            "CREATE VIEW v (x, y) AS SELECT a, b FROM t"
        )
        assert isinstance(stmt, CreateViewStmt)
        assert stmt.name == "v" and stmt.columns == ("x", "y")
        assert isinstance(stmt.select, SelectStmt)

    def test_without_columns(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t")
        assert stmt.columns == ()


class TestUnsupported:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE a = 1 OR b = 2",
            "SELECT a FROM t WHERE NOT a = 1",
            "SELECT a FROM t WHERE a IN (1, 2)",
            "SELECT a FROM t JOIN u ON a = b",
            "SELECT a FROM t UNION SELECT b FROM u",
            "SELECT a FROM t ORDER BY a",
            "SELECT a FROM t LIMIT 5",
        ],
    )
    def test_rejected_with_explanation(self, sql):
        with pytest.raises(UnsupportedSQLError):
            parse_select(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT t.a FROM (SELECT a FROM r) t",
            "SELECT t.a FROM r, (SELECT a FROM s GROUP BY a) AS t",
        ],
    )
    def test_from_subquery_refused_with_named_reason(self, sql):
        with pytest.raises(UnsupportedSQLError) as refused:
            parse_select(sql)
        assert (
            "FROM-clause subqueries (single-block queries only)"
            in str(refused.value)
        )

    def test_unknown_function(self):
        with pytest.raises(UnsupportedSQLError):
            parse_select("SELECT UPPER(a) FROM t")

    def test_missing_comparison(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM t WHERE a")
