"""Every snippet in docs/TUTORIAL.md, executed.

If a tutorial code path drifts from the library, this file fails.
"""

import random

import pytest

from repro import (
    Catalog,
    Database,
    QueryCache,
    RewriteEngine,
    assert_equivalent,
    explain_usability,
    parse_query,
    table,
)
from repro.maintenance import MaintainedView, apply_change


@pytest.fixture
def catalog():
    return Catalog(
        [
            table(
                "Orders",
                ["Order_Id", "Cust_Id", "Region", "Month", "Amount"],
                key=["Order_Id"],
                row_count=1_000_000,
                distinct={"Cust_Id": 10_000, "Region": 12, "Month": 12},
            ),
        ]
    )


@pytest.fixture
def engine(catalog):
    eng = RewriteEngine(catalog)
    eng.add_view(
        """
        CREATE VIEW Region_Month (Region, Month, Revenue, N) AS
        SELECT Region, Month, SUM(Amount), COUNT(Amount)
        FROM Orders
        GROUP BY Region, Month
        """,
        row_count=144,
    )
    return eng


@pytest.fixture
def db(catalog):
    rng = random.Random(9)
    rows = [
        (
            i,
            rng.randrange(40),
            rng.randrange(4),
            rng.randint(1, 12),
            rng.randint(1, 500),
        )
        for i in range(500)
    ]
    return Database(catalog, {"Orders": rows})


QUERY = (
    "SELECT Region, SUM(Amount) FROM Orders WHERE Month = 12 "
    "GROUP BY Region"
)


def test_section_3_rewrite(engine):
    result = engine.rewrite(QUERY)
    best = result.best()
    assert best is not None and best.view_names == ("Region_Month",)
    sql = best.sql()
    assert "Region_Month" in sql and "Month = 12" in sql


def test_section_3_variants(engine, catalog, db):
    avg = engine.rewrite(
        "SELECT Region, AVG(Amount) FROM Orders GROUP BY Region"
    )
    assert avg.best() is not None and "/" in avg.best().sql()
    count = engine.rewrite(
        "SELECT Region, COUNT(Amount) FROM Orders GROUP BY Region"
    )
    assert count.best() is not None and "SUM" in count.best().sql()
    per_customer = engine.rewrite(
        "SELECT Cust_Id, SUM(Amount) FROM Orders GROUP BY Cust_Id"
    )
    assert per_customer.best() is None


def test_section_4_explain(engine, catalog):
    query = parse_query(
        "SELECT Cust_Id, SUM(Amount) FROM Orders GROUP BY Cust_Id", catalog
    )
    summary = explain_usability(
        query, catalog.view("Region_Month"), catalog
    ).summary()
    assert "not usable" in summary and "C2'" in summary


def test_section_5_verify(engine, catalog):
    result = engine.rewrite(QUERY)
    assert_equivalent(catalog, QUERY, result.best(), trials=15, domain=4)


def test_section_6_answer(engine, db):
    sql = "SELECT Region, SUM(Amount) FROM Orders GROUP BY Region"
    answer = engine.answer(sql, db)
    assert answer.multiset_equal(db.execute(sql))


def test_section_7_maintenance(engine, catalog, db):
    maintainer = MaintainedView(catalog.view("Region_Month"), db)
    apply_change([maintainer], "Orders", inserts=[(10_001, 7, 3, 12, 250)])
    assert maintainer.consistency_check()
    fresh = maintainer.table()
    assert fresh.multiset_equal(db.execute(catalog.view("Region_Month").block))


def test_section_8_cache(catalog, db):
    cache = QueryCache(catalog, capacity_rows=50_000)
    summary_sql = (
        "SELECT Region, Month, SUM(Amount), COUNT(Amount) "
        "FROM Orders GROUP BY Region, Month"
    )
    cache.remember(summary_sql, db.execute(summary_sql))
    hit = cache.try_answer(
        "SELECT Region, SUM(Amount) FROM Orders GROUP BY Region"
    )
    assert hit is not None
    assert hit.multiset_equal(
        db.execute("SELECT Region, SUM(Amount) FROM Orders GROUP BY Region")
    )
