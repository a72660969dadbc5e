"""Wiring of the search-core memos, plus QueryCache accounting.

One test group per memo for what is specific to it — its key, what it
shares and what it copies; the hit/miss/eviction/bypass accounting all
of them inherit from `repro.memo.Memo` is in ``tests/test_memo.py``.
Then two QueryCache regressions: the LRU touch on ``try_answer`` hits
and the incrementally maintained ``size_rows`` total.
"""

import random

import pytest

from repro import Catalog, Database, parse_query, table
from repro.blocks.terms import Column, Comparison, Constant, Op
from repro.cache import QueryCache
from repro.constraints.closure import closure_of
from repro.constraints.residual import find_residual
from repro.core.canonical import canonical_key
from repro.core.planner import RewritePlanner, cache_stats
from repro.memo import clear_shared, disabled
from repro.workloads import star


def atoms(n, offset=0):
    cols = [Column(f"c{offset + i}") for i in range(n + 1)]
    return [Comparison(cols[i], Op.LT, cols[i + 1]) for i in range(n)]


def counts(name):
    stats = cache_stats()[name]
    return stats["hits"], stats["misses"]


@pytest.fixture(autouse=True)
def cold_memos():
    clear_shared()


class TestClosureMemo:
    def test_order_insensitive_key_and_shared_instance(self):
        conj = atoms(3)
        assert closure_of(conj) is closure_of(list(reversed(conj)))
        assert counts("closure") == (1, 1)

    def test_baseline_mode_returns_distinct_instances(self):
        conj = atoms(2)
        with disabled():
            assert closure_of(conj) is not closure_of(conj)
        assert cache_stats()["closure"]["bypasses"] == 2
        assert counts("closure") == (0, 0)


class TestCanonicalMemo:
    @pytest.fixture
    def catalog(self):
        return Catalog([table("R", ["A", "B"])])

    def test_equal_blocks_share_entry(self, catalog):
        one = parse_query("SELECT A FROM R", catalog)
        two = parse_query("SELECT A FROM R", catalog)
        assert one is not two
        canonical_key(one)
        canonical_key(two)
        assert counts("canonical_key") == (1, 1)

    def test_cached_key_matches_uncached(self, catalog):
        block = parse_query(
            "SELECT A, SUM(B) FROM R WHERE A > 0 GROUP BY A", catalog
        )
        warm = canonical_key(block)
        with disabled():
            cold = canonical_key(block)
        assert warm == cold


class TestResidualMemo:
    def test_callers_get_private_list_copies(self):
        conds_q = atoms(4) + [Comparison(Column("c0"), Op.GE, Constant(0))]
        view_conds = conds_q[:2]
        allowed = [Column(f"c{i}") for i in range(5)]
        first = find_residual(conds_q, view_conds, allowed)
        second = find_residual(conds_q, view_conds, allowed)
        assert first == second
        assert first is not second
        assert counts("residual") == (1, 1)


class TestPlannerSubstitutionMemo:
    def test_repeat_searches_hit(self):
        wl = star.generate(n_sales=100)
        planner = RewritePlanner(list(wl.views.values()), wl.catalog)
        query = wl.queries["category_revenue"]
        planner.all_rewritings(query, include_partial=False)
        misses_after_first = planner.stats.substitution_misses
        planner.all_rewritings(query, include_partial=False)
        assert planner.stats.substitution_misses == misses_after_first
        assert planner.stats.substitution_hits >= misses_after_first
        assert planner.stats.substitution_hits == (
            planner.memo("substitution").hits
        )

    def test_baseline_mode_bypasses_memo(self):
        wl = star.generate(n_sales=100)
        planner = RewritePlanner(list(wl.views.values()), wl.catalog)
        query = wl.queries["category_revenue"]
        with disabled():
            planner.all_rewritings(query)
            planner.all_rewritings(query)
        assert planner.stats.substitution_hits == 0
        assert planner.stats.substitution_misses == 0
        assert planner.memo_version == 0


class TestQueryCacheAccounting:
    @pytest.fixture
    def catalog(self):
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
    def server(self, catalog):
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
    YEARLY = "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"

    def test_try_answer_touches_lru_order(self, catalog, server):
        """A hit must move the serving entry to most-recently-used, so a
        later capacity squeeze evicts the untouched entry instead."""
        cache = QueryCache(catalog)
        cache.remember(self.SUMMARY, server.execute(self.SUMMARY), name="monthly")
        cache.remember(self.YEARLY, server.execute(self.YEARLY), name="yearly")
        assert cache.try_answer(self.SUMMARY) is not None  # serves "monthly"
        per_month = "SELECT Month, SUM(Charge) FROM Calls GROUP BY Month"
        pm_rows = server.execute(per_month)
        # Room for monthly + pm but not yearly as well.
        cache.capacity_rows = (
            len(server.execute(self.SUMMARY)) + len(pm_rows)
        )
        cache.remember(per_month, pm_rows, name="pm")
        assert "monthly" in cache.cached_names
        assert "yearly" not in cache.cached_names

    def test_size_rows_running_total(self, catalog, server):
        cache = QueryCache(catalog)

        def expected():
            return sum(
                len(cache._entries[n].table) for n in cache.cached_names
            )

        assert cache.size_rows == 0
        cache.remember(self.SUMMARY, server.execute(self.SUMMARY), name="m")
        assert cache.size_rows == expected()
        cache.remember(self.YEARLY, server.execute(self.YEARLY), name="y")
        assert cache.size_rows == expected()
        # Overwrite: the old rows must be subtracted, not double-counted.
        cache.remember(self.SUMMARY, server.execute(self.SUMMARY), name="m")
        assert cache.size_rows == expected()
        cache.forget("y")
        assert cache.size_rows == expected()

    def test_size_rows_after_eviction(self, catalog, server):
        summary_rows = server.execute(self.SUMMARY)
        cache = QueryCache(catalog, capacity_rows=len(summary_rows) + 1)
        cache.remember(self.SUMMARY, summary_rows, name="m")
        cache.remember(self.YEARLY, server.execute(self.YEARLY), name="y")
        assert cache.cached_names == ["y"]
        assert cache.size_rows == len(cache._entries["y"].table)
        assert cache.stats.evictions == 1
