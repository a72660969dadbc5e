"""View unfolding (Section 7: multi-block to single-block)."""

import random

import pytest

from repro import Catalog, Database, parse_query, parse_view, table, unfold_views
from repro.blocks.unfold import unfold_once


@pytest.fixture
def catalog():
    cat = Catalog([table("R", ["A", "B"]), table("S", ["C", "D"])])
    cat.add_view(
        parse_view(
            "CREATE VIEW V (A, D) AS SELECT A, D FROM R, S WHERE B = C",
            cat,
        )
    )
    cat.add_view(
        parse_view(
            "CREATE VIEW W (A2) AS SELECT A FROM V WHERE D = 1", cat
        )
    )
    cat.add_view(
        parse_view(
            "CREATE VIEW AggV (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            cat,
        )
    )
    return cat


def assert_unfold_equivalent(catalog, sql, seed=0, trials=30):
    query = parse_query(sql, catalog)
    flat = unfold_views(query, catalog)
    rng = random.Random(seed)
    for _ in range(trials):
        db = Database(
            catalog,
            {
                "R": [
                    (rng.randint(0, 2), rng.randint(0, 2))
                    for _ in range(rng.randint(0, 6))
                ],
                "S": [
                    (rng.randint(0, 2), rng.randint(0, 2))
                    for _ in range(rng.randint(0, 6))
                ],
            },
        )
        left, right = db.execute(query), db.execute(flat)
        assert left.multiset_equal(right), (sql, left.rows, right.rows)
    return query, flat


class TestUnfold:
    def test_base_tables_appear(self, catalog):
        _query, flat = assert_unfold_equivalent(
            catalog, "SELECT A FROM V WHERE D = 2"
        )
        assert {rel.name for rel in flat.from_} == {"R", "S"}
        assert len(flat.where) == 2  # B = C from the view, D = 2 from Q

    def test_aggregation_query_over_view(self, catalog):
        _query, flat = assert_unfold_equivalent(
            catalog, "SELECT A, COUNT(D) FROM V GROUP BY A"
        )
        assert flat.is_aggregation
        assert {rel.name for rel in flat.from_} == {"R", "S"}

    def test_nested_views(self, catalog):
        _query, flat = assert_unfold_equivalent(catalog, "SELECT A2 FROM W")
        assert {rel.name for rel in flat.from_} == {"R", "S"}

    def test_mixed_view_and_table(self, catalog):
        _query, flat = assert_unfold_equivalent(
            catalog, "SELECT V.A, R.B FROM V, R WHERE V.A = R.A"
        )
        names = sorted(rel.name for rel in flat.from_)
        assert names == ["R", "R", "S"]

    def test_self_join_of_view(self, catalog):
        _query, flat = assert_unfold_equivalent(
            catalog, "SELECT x.A FROM V x, V y WHERE x.D = y.A"
        )
        names = sorted(rel.name for rel in flat.from_)
        assert names == ["R", "R", "S", "S"]

    def test_aggregation_view_left_in_place(self, catalog):
        query = parse_query("SELECT A, N FROM AggV", catalog)
        assert unfold_once(query, catalog) is None
        assert unfold_views(query, catalog) == query

    def test_conjunctive_view_over_aggregation_view(self, catalog):
        """The conjunctive layer unfolds; the aggregation view under it
        stays in FROM, and the answers do not change."""
        catalog.add_view(
            parse_view(
                "CREATE VIEW Busy (A, N) AS SELECT A, N FROM AggV "
                "WHERE N > 1",
                catalog,
            )
        )
        _query, flat = assert_unfold_equivalent(
            catalog, "SELECT A, COUNT(N) FROM Busy GROUP BY A"
        )
        assert [rel.name for rel in flat.from_] == ["AggV"]
        assert len(flat.where) == 1

    def test_plain_query_untouched(self, catalog):
        query = parse_query("SELECT A FROM R", catalog)
        assert unfold_views(query, catalog) is query

    def test_unfolded_query_validates(self, catalog):
        query = parse_query(
            "SELECT A, SUM(D) FROM V WHERE A > 0 GROUP BY A "
            "HAVING SUM(D) < 9",
            catalog,
        )
        flat = unfold_views(query, catalog)
        flat.validate()
        assert flat.having and flat.group_by


class TestUnfoldThenRewrite:
    def test_reassembled_from_other_view(self, catalog):
        """A query written over V can, after unfolding, be answered from a
        summary view over the same base tables."""
        from repro import RewriteEngine

        summary = parse_view(
            "CREATE VIEW Summary (A, S, N) AS "
            "SELECT R.A, SUM(D), COUNT(D) FROM R, S WHERE B = C GROUP BY R.A",
            catalog,
        )
        catalog.add_view(summary)
        engine = RewriteEngine(catalog)
        sql = "SELECT A, SUM(D) FROM V GROUP BY A"

        without = engine.rewrite(sql)  # V's outputs don't match Summary
        with_unfold = engine.rewrite(sql, unfold=True)
        assert any(
            "Summary" in r.rewriting.view_names for r in with_unfold
        )
        # and the unfolded rewriting is correct on data
        rng = random.Random(3)
        db = Database(
            catalog,
            {
                "R": [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(8)],
                "S": [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(8)],
            },
        )
        best = with_unfold.best()
        left = db.execute(parse_query(sql, catalog))
        right = db.execute(best.query, extra_views=best.extra_views())
        assert left.multiset_equal(right)
