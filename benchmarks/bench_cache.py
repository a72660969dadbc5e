"""Experiment E14 (extension) — the semantic query-result cache.

The mobile-computing motivation (Section 1) quantified: hit rates and
latencies of a QueryCache fed a workload of rollup queries over a single
cached summary, versus re-asking the (simulated slow) server. Semantic
matching is the point: none of the workload queries textually equals the
cached one.
"""

import random

import pytest

from repro.bench import ResultTable, time_best
from repro.cache import QueryCache
from repro.engine.database import Database
from repro.workloads.telephony import telephony_catalog

SUMMARY = (
    "SELECT Calls.Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) "
    "FROM Calls GROUP BY Calls.Plan_Id, Month, Year"
)

ROLLUPS = [
    "SELECT Calls.Plan_Id, SUM(Charge) FROM Calls GROUP BY Calls.Plan_Id",
    "SELECT Year, SUM(Charge) FROM Calls GROUP BY Year",
    "SELECT Month, COUNT(Charge) FROM Calls GROUP BY Month",
    "SELECT Calls.Plan_Id, AVG(Charge) FROM Calls GROUP BY Calls.Plan_Id",
    "SELECT Calls.Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 "
    "GROUP BY Calls.Plan_Id",
    "SELECT Cust_Id, SUM(Charge) FROM Calls GROUP BY Cust_Id",  # miss
]


@pytest.fixture(scope="module")
def server():
    catalog = telephony_catalog(n_calls=5_000)
    rng = random.Random(17)
    calls = [
        (
            i,
            rng.randrange(100),
            rng.randrange(8),
            rng.randint(1, 28),
            rng.randint(1, 12),
            rng.choice([1994, 1995]),
            rng.randint(1, 500),
        )
        for i in range(5_000)
    ]
    return catalog, Database(catalog, {"Calls": calls})


def test_hit_rate_and_latency(server, benchmark):
    catalog, db = server
    cache = QueryCache(catalog)
    cache.remember(SUMMARY, db.execute(SUMMARY))

    table_out = ResultTable(
        "E14: semantic cache vs server round trip (ms)",
        ["query", "hit", "t_cache", "t_server"],
    )
    for sql in ROLLUPS:
        t_server = time_best(lambda: db.execute(sql), repeats=2) * 1000
        answer = cache.try_answer(sql)
        if answer is None:
            table_out.add(sql[:48], "miss", "-", round(t_server, 2))
            continue
        t_cache = time_best(lambda: cache.try_answer(sql), repeats=2) * 1000
        assert answer.multiset_equal(db.execute(sql))
        table_out.add(sql[:48], "HIT", round(t_cache, 2), round(t_server, 2))
    table_out.show()

    hits = sum(1 for sql in ROLLUPS if cache.find_rewriting(sql))
    assert hits == len(ROLLUPS) - 1  # only the per-customer query misses

    benchmark(lambda: cache.try_answer(ROLLUPS[0]))


def test_rewriting_search_latency(server, benchmark):
    """Cost of the semantic-match decision itself (per lookup)."""
    catalog, db = server
    cache = QueryCache(catalog)
    cache.remember(SUMMARY, db.execute(SUMMARY))
    benchmark(lambda: cache.find_rewriting(ROLLUPS[1]))


def test_miss_detection_latency(server, benchmark):
    catalog, db = server
    cache = QueryCache(catalog)
    cache.remember(SUMMARY, db.execute(SUMMARY))
    benchmark(lambda: cache.find_rewriting(ROLLUPS[-1]))
