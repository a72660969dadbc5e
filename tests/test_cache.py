"""Semantic query-result cache."""

import random

import pytest

from repro import Catalog, Database, table
from repro.cache import QueryCache
from repro.errors import SchemaError


@pytest.fixture
def catalog():
    return Catalog(
        [
            table(
                "Calls",
                ["Call_Id", "Plan_Id", "Month", "Year", "Charge"],
                key=["Call_Id"],
            )
        ]
    )


@pytest.fixture
def server(catalog):
    rng = random.Random(4)
    rows = [
        (
            i,
            rng.randrange(4),
            rng.randint(1, 12),
            rng.choice([1994, 1995]),
            rng.randint(1, 100),
        )
        for i in range(300)
    ]
    return Database(catalog, {"Calls": rows})


SUMMARY = (
    "SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) "
    "FROM Calls GROUP BY Plan_Id, Month, Year"
)


class TestSemanticHits:
    def test_exact_requery_hits(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        answer = cache.try_answer(SUMMARY)
        assert answer is not None
        assert answer.multiset_equal(server.execute(SUMMARY))

    def test_coarser_rollup_hits(self, catalog, server):
        """The semantic case: yearly totals from the cached monthly
        summary — no syntactic match."""
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        rollup = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        answer = cache.try_answer(rollup)
        assert answer is not None
        assert answer.multiset_equal(server.execute(rollup))
        assert cache.stats.hits == 1

    def test_residual_filter_hits(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        filtered = (
            "SELECT Plan_Id, SUM(Charge) FROM Calls "
            "WHERE Year = 1995 GROUP BY Plan_Id"
        )
        answer = cache.try_answer(filtered)
        assert answer is not None
        assert answer.multiset_equal(server.execute(filtered))

    def test_detail_query_misses(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        assert cache.try_answer("SELECT Call_Id, Charge FROM Calls") is None
        assert cache.stats.misses == 1

    def test_conjunctive_cached_result(self, catalog, server):
        cache = QueryCache(catalog)
        base = "SELECT Plan_Id, Year, Charge FROM Calls WHERE Year = 1995"
        cache.remember(base, server.execute(base))
        query = (
            "SELECT Plan_Id, SUM(Charge) FROM Calls "
            "WHERE Year = 1995 GROUP BY Plan_Id"
        )
        answer = cache.try_answer(query)
        assert answer is not None
        assert answer.multiset_equal(server.execute(query))


class TestAnswerFallback:
    def test_miss_then_hit(self, catalog, server):
        cache = QueryCache(catalog)
        query = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        first, hit1 = cache.answer(query, server)
        second, hit2 = cache.answer(query, server)
        assert not hit1 and hit2
        assert first.multiset_equal(second)

    def test_remember_on_miss_disabled(self, catalog, server):
        cache = QueryCache(catalog)
        query = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        cache.answer(query, server, remember_on_miss=False)
        assert cache.cached_names == []

    def test_hit_rate(self, catalog, server):
        cache = QueryCache(catalog)
        query = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        cache.answer(query, server)
        cache.answer(query, server)
        cache.answer(query, server)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestEviction:
    def test_lru_eviction_under_capacity(self, catalog, server):
        summary_rows = server.execute(SUMMARY)
        # Room for the summary plus one row: adding the 4-row yearly
        # rollup must push the (older) summary out.
        cache = QueryCache(catalog, capacity_rows=len(summary_rows) + 1)
        cache.remember(SUMMARY, summary_rows, name="monthly")
        other = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        cache.remember(other, server.execute(other), name="yearly")
        assert "monthly" not in cache.cached_names
        assert "yearly" in cache.cached_names
        assert cache.stats.evictions == 1

    def test_forget(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY), name="m")
        cache.forget("m")
        assert cache.cached_names == []
        with pytest.raises(SchemaError):
            cache.forget("m")

    def test_touch_updates_lru_order(self, catalog, server):
        cache = QueryCache(catalog, capacity_rows=10_000)
        cache.remember(SUMMARY, server.execute(SUMMARY), name="monthly")
        other = "SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year"
        cache.remember(other, server.execute(other), name="py")
        # Touch "monthly" through a hit, then shrink capacity: "py"
        # must be the victim.
        assert cache.try_answer(
            "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        ) is not None
        cache.capacity_rows = len(server.execute(SUMMARY)) + 2
        cache.remember(
            "SELECT Year, SUM(Charge) FROM Calls GROUP BY Year",
            server.execute("SELECT Year, SUM(Charge) FROM Calls GROUP BY Year"),
            name="yr",
        )
        assert "monthly" in cache.cached_names or "yr" in cache.cached_names

    def test_base_catalog_untouched(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        assert not catalog.views


class TestStatsWindow:
    """Reads are idempotent; resets are explicit (the gauge-exporter
    contract: polled numbers never go backwards behind a reader)."""

    def _worked_cache(self, catalog, server):
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        cache.try_answer(
            "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
        )
        cache.try_answer("SELECT Call_Id, Charge FROM Calls")
        return cache

    def test_as_dict_is_idempotent(self, catalog, server):
        cache = self._worked_cache(catalog, server)
        first = cache.stats.as_dict()
        second = cache.stats.as_dict()
        assert first == second
        assert first["hits"] == 1 and first["misses"] == 1
        assert cache.stats.hits == 1  # attributes untouched by reads

    def test_reset_stats_zeroes_every_counter(self, catalog, server):
        cache = self._worked_cache(catalog, server)
        cache.reset_stats()
        assert cache.stats.as_dict() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "remembered": 0,
            "budget_exhausted": 0,
            "hit_rate": 0.0,
        }
        # The cached contents survive — only the counting window resets.
        assert cache.cached_names
        assert (
            cache.try_answer(
                "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
            )
            is not None
        )
        assert cache.stats.hits == 1


class TestRandomizedCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_hit_matches_server(self, catalog, server, seed):
        rng = random.Random(seed)
        cache = QueryCache(catalog)
        cache.remember(SUMMARY, server.execute(SUMMARY))
        group_choices = [
            "Plan_Id",
            "Month",
            "Year",
            "Plan_Id, Year",
            "Month, Year",
        ]
        for _ in range(6):
            groups = rng.choice(group_choices)
            agg = rng.choice(["SUM(Charge)", "COUNT(Charge)", "AVG(Charge)"])
            where = rng.choice(["", " WHERE Year = 1995", " WHERE Month = 6"])
            sql = (
                f"SELECT {groups}, {agg} FROM Calls{where} GROUP BY {groups}"
            )
            answer = cache.try_answer(sql)
            if answer is not None:
                assert answer.multiset_equal(server.execute(sql)), sql
