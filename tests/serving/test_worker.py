"""PlannerCache: warm paths, epoch revalidation, cold parity."""

from __future__ import annotations

import pytest

from repro import memo
from repro.obs.budget import SearchBudget
from repro.obs.metrics import MetricsRegistry, collecting
from repro.serving import PlannerCache, serving_group_key
from repro.serving.memo import LocalMemoTier
from repro.serving.worker import COLD, WARM_LOCAL, WARM_SHARED
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.workloads.random_queries import random_scenario


def request_for(sc, **kwargs):
    return RewriteRequest(query=sc.query, catalog=sc.catalog, **kwargs)


def rewriting_sqls(response):
    return [r.sql() for r in response.rewritings]


def test_cold_then_warm_local():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    _response, key, view_names, export, path = cache.run(request_for(sc))
    assert path == COLD
    assert key == serving_group_key(request_for(sc))
    assert set(view_names) == set(sc.catalog.views)
    _r2, _k2, _v2, _e2, path2 = cache.run(request_for(sc))
    assert path2 == WARM_LOCAL


def test_epoch_bump_revalidates_through_shared_tier():
    sc = random_scenario(7)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    _r, key, view_names, export, _p = cache.run(request_for(sc))
    tier.publish(key, view_names, export)

    # Epoch moved but the entry survives: warm-start from the tier.
    tier.invalidate_views(["NotAView"])
    _r2, _k2, _v2, _e2, path2 = cache.run(request_for(sc))
    assert path2 == WARM_SHARED

    # Entry evicted by invalidation: plan cold, never stale.
    tier.invalidate_views(list(view_names))
    _r3, _k3, _v3, _e3, path3 = cache.run(request_for(sc))
    assert path3 == COLD


@pytest.mark.parametrize("seed", range(0, 20))
def test_warm_responses_match_cold_planner(seed):
    sc = random_scenario(seed)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    _r, key, view_names, export, _p = cache.run(request_for(sc))
    tier.publish(key, view_names, export)
    warm, _k, _v, _e, path = cache.run(request_for(sc))
    assert path == WARM_LOCAL
    cold = execute_request(request_for(sc))
    assert rewriting_sqls(warm) == rewriting_sqls(cold)
    assert warm.original_cost == cold.original_cost


def test_view_subset_request_gets_its_own_warm_planner():
    for seed in range(0, 50):
        sc = random_scenario(seed)
        if len(sc.views) >= 2:
            break
    else:
        pytest.skip("no multi-view scenario found")
    pinned = (sc.views[0],)
    request = request_for(sc, views=pinned)
    cache = PlannerCache(LocalMemoTier())
    response, key, view_names, _e, _p = cache.run(request)
    assert view_names == (sc.views[0].name,)
    # Only the pinned view may appear in results.
    for rewriting in response.rewritings:
        assert set(rewriting.view_names) <= {sc.views[0].name}
    # Parity with the explicit-views cold path.
    cold = execute_request(request_for(sc, views=pinned))
    assert rewriting_sqls(response) == rewriting_sqls(cold)
    # Second run is warm: the pinned subset's planner is cached by key.
    _r2, key2, _v2, _e2, path2 = cache.run(request_for(sc, views=pinned))
    assert key2 == key
    assert path2 == WARM_LOCAL


def test_pinned_request_may_read_an_unpinned_view():
    """A pinned request is parsed against the whole catalog, exactly as
    the batch path parses it: FROM may name a view outside the pin."""
    from repro import Catalog, RewriteEngine, table
    from repro.serving import request_from_wire

    catalog = Catalog(
        [table("Calls", ["Call_Id", "Plan_Id", "Year", "Charge"],
               key=["Call_Id"])]
    )
    engine = RewriteEngine(catalog)
    engine.add_view(
        "CREATE VIEW Yearly (Plan_Id, Year, Total) AS SELECT Plan_Id, "
        "Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year"
    )
    engine.add_view(
        "CREATE VIEW ByPlan (Plan_Id, Total) AS SELECT Plan_Id, "
        "SUM(Charge) FROM Calls GROUP BY Plan_Id"
    )
    request = request_from_wire(
        {
            "sql": "SELECT Plan_Id, SUM(Total) FROM Yearly GROUP BY Plan_Id",
            "views": ["ByPlan"],
        },
        catalog,
    )
    batch = execute_request(request, capture_errors=True)
    assert batch.error is None
    cache = PlannerCache(LocalMemoTier())
    for _ in range(2):  # cold, then warm
        served = cache.run(request)[0]
        assert served.error is None
        assert rewriting_sqls(served) == rewriting_sqls(batch)
        assert served.original_cost == batch.original_cost


def test_wire_strategy_argument_pins_the_request():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    pinned = cache.run(request_for(sc), "cohen_nutt")[0]
    riding = cache.run(request_for(sc, strategy="cohen_nutt"))[0]
    assert rewriting_sqls(pinned) == rewriting_sqls(riding)
    # "default" / None leave the request's own strategy alone.
    kept = cache.run(request_for(sc, strategy="cohen_nutt"), "default")[0]
    assert rewriting_sqls(kept) == rewriting_sqls(riding)


def test_count_budgeted_requests_stay_deterministic():
    # The executor's determinism rule: count-budgeted requests always
    # plan cold internally, so a warm PlannerCache must not change what
    # they return.
    sc = random_scenario(7)
    budget = SearchBudget(max_mappings=2, max_candidates=1)
    cache = PlannerCache(LocalMemoTier())
    cache.run(request_for(sc))  # warm the planner
    warm, _k, _v, _e, _p = cache.run(request_for(sc, budget=budget))
    cold = execute_request(request_for(sc, budget=budget))
    assert rewriting_sqls(warm) == rewriting_sqls(cold)


# ----------------------------------------------------------------------
# Export on change: an unchanged planner hands back an empty export.


def test_unchanged_planner_exports_nothing():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    _r, _k, _v, first, _p = cache.run(request_for(sc))
    assert first  # a new planner always exports
    for _ in range(3):
        _r, _k, _v, export, path = cache.run(request_for(sc))
        assert path == WARM_LOCAL
        assert export == []


def test_rebuilt_planner_exports_again_after_invalidation():
    sc = random_scenario(7)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    _r, key, view_names, export, _p = cache.run(request_for(sc))
    tier.publish(key, view_names, export)
    assert cache.run(request_for(sc))[3] == []

    tier.invalidate_views(list(view_names))
    _r, _k, _v, export, path = cache.run(request_for(sc))
    assert path == COLD
    assert export
    assert cache.run(request_for(sc))[3] == []


def test_rebuilt_planner_exports_again_after_lru_eviction(monkeypatch):
    for seed in range(0, 50):
        sc = random_scenario(seed)
        if len(sc.views) >= 2:
            break
    else:
        pytest.skip("no multi-view scenario found")
    monkeypatch.setattr(PlannerCache, "MAX_PLANNERS", 1)
    cache = PlannerCache(LocalMemoTier())
    assert cache.run(request_for(sc))[3]
    assert cache.run(request_for(sc))[3] == []
    # A second fingerprint pushes the first planner out of the LRU.
    cache.run(request_for(sc, views=(sc.views[0],)))
    _r, _k, _v, export, path = cache.run(request_for(sc))
    assert path == COLD
    assert export


def test_planner_lru_order(monkeypatch):
    """The least recently used planner goes first, and one rebuilt after
    an epoch move counts as just used (``benchmarks/e2e/layers.py``
    mirrors this order to count planner evictions)."""
    a, b, c = (random_scenario(seed) for seed in range(3))
    monkeypatch.setattr(PlannerCache, "MAX_PLANNERS", 2)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)

    def paths(*scenarios):
        return [cache.run(request_for(sc))[4] for sc in scenarios]

    assert paths(a, b, a, c) == [COLD, COLD, WARM_LOCAL, COLD]
    assert paths(a) == [WARM_LOCAL]  # c pushed b out, not a
    tier.invalidate_views(["NotAView"])
    # c is rebuilt, so b pushes out a, not c.
    assert paths(c, b, c) == [COLD, COLD, WARM_LOCAL]


def test_planner_evictions_are_counted():
    """``repro_serving_planner_evictions_total`` reads the planner LRU's
    own count: a stream of pinned subsets past MAX_PLANNERS evicts one
    planner per new fingerprint."""
    extra = 5
    cache = PlannerCache(LocalMemoTier())
    registry = MetricsRegistry()
    with collecting(registry):
        for seed in range(PlannerCache.MAX_PLANNERS + extra):
            sc = random_scenario(seed)
            assert cache.run(request_for(sc, views=(sc.views[0],)))[4] == COLD
    evictions = registry.snapshot().counter_value(
        "repro_serving_planner_evictions_total"
    )
    assert evictions == cache._planners.evictions == extra


def test_memo_switch_off_keeps_no_planner():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    with memo.disabled():
        paths = [cache.run(request_for(sc))[4] for _ in range(2)]
    assert paths == [COLD, COLD]
    assert len(cache._planners) == 0


def test_warm_shared_rebuild_exports_again():
    sc = random_scenario(7)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    _r, key, view_names, export, _p = cache.run(request_for(sc))
    tier.publish(key, view_names, export)
    assert cache.run(request_for(sc))[3] == []

    # The epoch moves but the entry survives: the planner is rebuilt
    # from the tier and, being new, exports after its first request.
    tier.invalidate_views(["NotAView"])
    _r, _k, _v, export, path = cache.run(request_for(sc))
    assert path == WARM_SHARED
    assert export
    assert cache.run(request_for(sc))[3] == []


def test_strategy_family_insert_alone_makes_the_next_export_non_empty():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    _r, key, _v, _e, _p = cache.run(request_for(sc))
    assert cache.run(request_for(sc))[3] == []

    planner = cache._planners.get(key).planner
    version = planner.memo_version
    planner.memo("cohen_nutt").put(("k",), ("v",))
    assert planner.memo_version > version
    _r, _k, _v, export, path = cache.run(request_for(sc))
    assert path == WARM_LOCAL
    assert ("cohen_nutt", ("k",), ("v",)) in export
    assert cache.run(request_for(sc))[3] == []
