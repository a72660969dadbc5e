"""PlannerCache's response memo: byte-identical repeats are answered from
finished responses.

A key's first execution leaves a marker and its second stores the
response, so the third is the first hit. A hit must be indistinguishable
from a cold execution apart from its ``request_id``, ``elapsed`` and
trace; after an update the same text stays a hit, ranked again with the
new statistics; budgeted and ``collect_metrics`` requests never take
part; and nothing of it is published, pickled or kept past its bound.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.blocks.to_sql import block_to_sql
from repro.catalog.load import load_schema
from repro.obs.budget import SearchBudget
from repro.obs.metrics import MetricsRegistry, collecting, set_global_metrics
from repro.serving import PlannerCache, ServingClient, serving_group_key
from repro.serving.memo import LocalMemoTier
from repro.serving.worker import COLD, WARM_LOCAL, WARM_SHARED
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.workloads.random_queries import random_scenario

from .conftest import running_daemon

SEEDS = range(40)
FAMILY = "repro_serving_response_memo_total"


def text_request(sc, **kwargs) -> RewriteRequest:
    return RewriteRequest(
        query=block_to_sql(sc.query), catalog=sc.catalog, **kwargs
    )


def outcome(response) -> tuple:
    """What a caller can see, as in tests/integration/test_request_paths."""
    return (
        [rw.sql() for rw in response.rewritings],
        [(r.sql(), r.cost) for r in response.ranked],
        response.original_cost,
        response.exhausted,
    )


def memo_counts(registry: MetricsRegistry) -> dict:
    snapshot = registry.snapshot()
    return {
        outcome: snapshot.counter_value(FAMILY, outcome=outcome)
        for outcome in ("hit", "miss", "bypass")
    }


def run_counted(cache, *requests):
    """Run ``requests`` in order; their results and the memo counts."""
    registry = MetricsRegistry()
    with collecting(registry):
        results = [cache.run(request) for request in requests]
    return results, memo_counts(registry)


# ----------------------------------------------------------------------
# Parity


@pytest.mark.parametrize("seed", SEEDS)
def test_hit_equals_a_cold_execution(seed):
    sc = random_scenario(seed)
    request = text_request(sc)
    cache = PlannerCache(LocalMemoTier())
    (_first, _second, hit), counts = run_counted(
        cache, request, request, request
    )
    assert counts == {"hit": 1, "miss": 2, "bypass": 0}
    response, _key, _names, export, path = hit
    assert path == WARM_LOCAL
    assert export == []
    assert response.error is None
    assert outcome(response) == outcome(execute_request(request))


@pytest.mark.parametrize("seed", SEEDS)
def test_update_turns_the_same_text_into_a_reranked_miss(seed):
    """An update moves counts, not rewritings: the same text misses only
    the ranking — its stored rewritings are ranked again, and the
    request counts as a hit."""
    sc = random_scenario(seed)
    request = text_request(sc)
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    before = [cache.run(request)[0] for _ in range(3)][-1]  # a hit
    # What the daemon's delta listener does: refresh each changed view's
    # row count, then invalidate it (which bumps the epoch). The counts
    # grow enough to lift every cost off the model's floor of 1 row.
    catalog = sc.catalog
    for name in catalog.views:
        catalog.set_row_count(name, catalog.row_count(name) + 10**9)
    tier.invalidate_views(list(catalog.views))
    (after, again), counts = run_counted(cache, request, request)
    # Ranked again, not searched again: both are hits.
    assert counts == {"hit": 2, "miss": 0, "bypass": 0}
    assert outcome(after[0]) == outcome(execute_request(request))
    assert outcome(again[0]) == outcome(after[0])
    if before.ranked:
        assert [r.cost for r in after[0].ranked] != [
            r.cost for r in before.ranked
        ]


@pytest.mark.parametrize("seed", range(10))
def test_a_count_change_without_invalidation_reranks(seed):
    """The stamp, not the epoch, decides: counts moved behind the tier's
    back (no invalidation) still re-rank, table counts included."""
    sc = random_scenario(seed)
    request = text_request(sc)
    cache = PlannerCache(LocalMemoTier())
    for _ in range(2):
        cache.run(request)
    catalog = sc.catalog
    table = next(iter(catalog.tables))
    catalog.set_table_row_count(table, catalog.row_count(table) * 1000)
    name = next(iter(catalog.views))
    catalog.set_row_count(name, catalog.row_count(name) + 10**6)
    (hit,), counts = run_counted(cache, request)
    assert counts == {"hit": 1, "miss": 0, "bypass": 0}
    assert outcome(hit[0]) == outcome(execute_request(request))


def test_pinned_request_reranks_when_an_unpinned_from_view_moves():
    """``original_cost`` reads the count of a view the query's FROM names
    but the request did not pin, so the stamp covers it."""
    catalog, _ = load_schema(
        "CREATE TABLE Calls (Call_Id, Plan_Id, Year, Charge);\n"
        "CREATE VIEW Yearly (Plan_Id, Year, Total) AS SELECT Plan_Id, "
        "Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year;\n"
        "CREATE VIEW Totals (Plan_Id, Total) AS SELECT Plan_Id, "
        "SUM(Charge) FROM Calls GROUP BY Plan_Id;\n"
    )
    request = RewriteRequest(
        query="SELECT Plan_Id, SUM(Total) FROM Yearly GROUP BY Plan_Id",
        catalog=catalog,
        views=(catalog.view("Totals"),),
    )
    cache = PlannerCache(LocalMemoTier())
    results, counts = run_counted(cache, request, request, request)
    assert counts == {"hit": 1, "miss": 2, "bypass": 0}
    before = results[-1][0]
    catalog.set_row_count("Yearly", catalog.row_count("Yearly") + 10**6)
    (hit,), counts = run_counted(cache, request)
    assert counts == {"hit": 1, "miss": 0, "bypass": 0}
    assert outcome(hit[0]) == outcome(execute_request(request))
    assert hit[0].original_cost != before.original_cost


def test_daemon_update_turns_the_hot_text_into_a_miss(scenario):
    """Through a live daemon: after an update the hot text is a stored
    response ranked again (a hit), equal to a cold execution."""
    sc, db = scenario
    sql = block_to_sql(sc.query)
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)
    registry = MetricsRegistry()
    previous = set_global_metrics(registry)
    try:
        with running_daemon(
            sc.catalog, database=db, memo_tier=LocalMemoTier()
        ) as daemon:
            with ServingClient.connect(
                ("127.0.0.1", daemon.tcp_port)
            ) as client:
                for _ in range(3):
                    assert client.rewrite(sql)["ok"]
                update = client.update(
                    table, insert=[[i] * width for i in range(40)]
                )
                assert update["ok"]
                served = client.rewrite(sql)
    finally:
        set_global_metrics(previous)
    assert memo_counts(registry) == {"hit": 2, "miss": 2, "bypass": 0}
    cold = execute_request(RewriteRequest(query=sql, catalog=sc.catalog))
    assert [
        (r["sql"], r["cost"]) for r in served["result"]["rewritings"]
    ] == [(r.sql(), r.cost) for r in cold.ranked]
    assert served["result"]["original_cost"] == cold.original_cost


# ----------------------------------------------------------------------
# Bypass


@pytest.mark.parametrize(
    "make",
    [
        lambda sc: text_request(sc, budget=SearchBudget(deadline=60.0)),
        lambda sc: text_request(sc, budget=SearchBudget(max_mappings=1000)),
        lambda sc: text_request(sc, collect_metrics=True),
        lambda sc: RewriteRequest(query=sc.query, catalog=sc.catalog),
    ],
    ids=["deadline", "count_budget", "collect_metrics", "pre_parsed"],
)
def test_unmemoizable_requests_bypass(make):
    sc = random_scenario(7)
    request = make(sc)
    cache = PlannerCache(LocalMemoTier())
    results, counts = run_counted(cache, request, request)
    assert counts == {"hit": 0, "miss": 0, "bypass": 2}
    for response, *_rest in results:
        assert outcome(response) == outcome(execute_request(request))


def test_answer_fields_are_part_of_the_key():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    variants = [
        text_request(sc),
        text_request(sc, strategy="cohen_nutt"),
        text_request(sc, max_steps=1),
        text_request(sc, unfold=True),
        text_request(sc, include_partial=False),
    ]
    _results, counts = run_counted(cache, *variants, *variants)
    assert counts == {"hit": 0, "miss": 2 * len(variants), "bypass": 0}
    _results, counts = run_counted(cache, *variants)
    assert counts == {"hit": len(variants), "miss": 0, "bypass": 0}


def test_a_one_off_text_leaves_only_a_marker():
    sc = random_scenario(7)
    request = text_request(sc)
    cache = PlannerCache(LocalMemoTier())
    cache.run(request)
    responses = cache._responses
    assert [value for _k, value in responses.items()] == [None]
    (second,), counts = run_counted(cache, request)
    assert counts == {"hit": 0, "miss": 1, "bypass": 0}
    assert [value.response for _k, value in responses.items()] == [
        replace(second[0], trace=None)
    ]


def test_stored_responses_outlive_their_planner():
    """The memo belongs to the cache: evicting a fingerprint's planner
    from the LRU leaves its stored responses hitting."""
    scenarios = [
        random_scenario(seed) for seed in range(PlannerCache.MAX_PLANNERS + 1)
    ]
    cache = PlannerCache(LocalMemoTier())
    first = text_request(scenarios[0])
    cache.run(first)
    cache.run(first)
    for sc in scenarios[1:]:  # pushes the first planner out
        cache.run(text_request(sc))
    (again,), counts = run_counted(cache, first)
    assert again[4] == COLD
    assert counts == {"hit": 1, "miss": 0, "bypass": 0}
    assert outcome(again[0]) == outcome(execute_request(first))


# ----------------------------------------------------------------------
# Count-budgeted requests leave the planner LRU alone


def test_count_budgeted_request_does_not_evict_a_warm_planner():
    scenarios = [
        random_scenario(seed) for seed in range(PlannerCache.MAX_PLANNERS + 1)
    ]
    keys = {serving_group_key(text_request(sc)) for sc in scenarios}
    assert len(keys) == len(scenarios)
    cache = PlannerCache(LocalMemoTier())
    for sc in scenarios[:-1]:
        assert cache.run(text_request(sc))[4] == COLD
    budgeted = text_request(
        scenarios[-1], budget=SearchBudget(max_mappings=1000)
    )
    assert cache.run(budgeted)[4] == COLD
    for sc in scenarios[:-1]:
        assert cache.run(text_request(sc))[4] == WARM_LOCAL


def test_count_budgeted_request_plans_cold_and_caches_nothing():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    budgeted = text_request(sc, budget=SearchBudget(max_mappings=2))
    for _ in range(2):  # never cached, so cold both times
        _r, _k, _v, export, path = cache.run(budgeted)
        assert path == COLD
        assert export == []
    assert cache.run(text_request(sc))[4] == COLD
    # Beside a warm planner it still reports cold, and leaves it warm.
    assert cache.run(budgeted)[4] == COLD
    assert cache.run(text_request(sc))[4] == WARM_LOCAL


# ----------------------------------------------------------------------
# What a hit carries


class FakeTime:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


def test_hit_has_its_own_request_id_and_elapsed(monkeypatch):
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    cache.run(text_request(sc))
    first = cache.run(text_request(sc, request_id="a"))[0]
    monkeypatch.setattr("repro.serving.worker.time", FakeTime())
    hit = cache.run(text_request(sc, request_id="b"))[0]
    assert first.request_id == "a"
    assert hit.request_id == "b"
    assert hit.elapsed == 1.0  # one tick: the lookup, not the search
    assert outcome(hit) == outcome(first)


def test_traced_hit_carries_one_response_memo_span():
    sc = random_scenario(7)
    cache = PlannerCache(LocalMemoTier())
    for _ in range(2):
        miss = cache.run(text_request(sc, trace=True))[0]
        assert "search" in miss.trace.root.children
    hit = cache.run(text_request(sc, trace=True))[0]
    assert list(hit.trace.root.children) == ["response_memo"]
    assert hit.trace.root.children["response_memo"].count == 1
    # The stored response holds no trace: an untraced hit has none.
    assert cache.run(text_request(sc))[0].trace is None


# ----------------------------------------------------------------------
# Nothing is published


def test_store_leaves_memo_version_unchanged():
    sc = random_scenario(7)
    request = text_request(sc)
    cache = PlannerCache(LocalMemoTier())
    response, key, _v, export, _p = cache.run(request)
    cached = cache._planners.get(key)
    assert all(
        memo is not cache._responses
        for memo in cached.planner.memos.values()
    )
    assert not any(
        isinstance(value, type(response)) for _f, _k, value in export
    )
    version = cached.planner.memo_version
    # The second execution stores the response: nothing to export.
    assert cache.run(request)[3] == []
    stored = cache._responses.items()[0][1]
    assert isinstance(stored.response, type(response))
    assert cached.planner.memo_version == version
    # Nor does a re-ranked store.
    name = next(iter(sc.catalog.views))
    sc.catalog.set_row_count(name, sc.catalog.row_count(name) + 10**6)
    _response, key, _v, export, _p = cache.run(request)
    assert export == []
    assert cache._planners.get(key).planner.memo_version == 0


# ----------------------------------------------------------------------
# Bounds and pickling


def test_capacity_bound_holds(monkeypatch):
    # One memo for the cache: MAX_PLANNERS * MAX_RESPONSES entries.
    monkeypatch.setattr(PlannerCache, "MAX_PLANNERS", 1)
    monkeypatch.setattr(PlannerCache, "MAX_RESPONSES", 3)
    sc = random_scenario(7)
    sql = block_to_sql(sc.query)
    cache = PlannerCache(LocalMemoTier())
    # Trailing blanks: the same query, five distinct byte strings.
    texts = [sql + " " * i for i in range(5)]
    for text in texts:
        for _ in range(2):  # stored from the second execution on
            cache.run(RewriteRequest(query=text, catalog=sc.catalog))
    assert len(cache._responses) == 3
    (_old, _new), counts = run_counted(
        cache,
        RewriteRequest(query=texts[0], catalog=sc.catalog),
        RewriteRequest(query=texts[-1], catalog=sc.catalog),
    )
    assert counts == {"hit": 1, "miss": 1, "bypass": 0}


def test_pickled_rewriting_and_block_carry_no_text():
    sc = random_scenario(7)
    response = execute_request(text_request(sc))
    assert response.rewritings
    rewriting = response.rewritings[0]
    text = rewriting.sql()
    assert rewriting.sql() is text  # printed once
    restored = pickle.loads(pickle.dumps(rewriting))
    assert "_cached_sql" not in restored.__dict__
    assert restored == rewriting and restored.sql() == text

    block = response.query
    block_text = block_to_sql(block)
    assert block_to_sql(block) is block_text
    assert block_text.encode() not in pickle.dumps(block)
    assert "_cached_sql" not in pickle.loads(pickle.dumps(block)).__dict__
    # Other dialects are printed every time, never cached.
    assert block_to_sql(block, dialect="sqlite") == block_to_sql(
        block, dialect="sqlite"
    )


# ----------------------------------------------------------------------
# The event loop beside the worker thread


def test_stored_response_races_run_on_another_thread(monkeypatch):
    """The serial daemon calls ``stored_response`` on its event loop
    while the worker thread runs ``run``. With both memos evicting,
    epoch bumps and a 1 µs switch interval, every answer still equals a
    cold execution, neither memo outgrows its cap, and each answer is
    counted exactly once."""
    monkeypatch.setattr(PlannerCache, "MAX_PLANNERS", 2)
    monkeypatch.setattr(PlannerCache, "MAX_RESPONSES", 3)
    requests = [
        RewriteRequest(
            query=block_to_sql(sc.query) + " " * blanks, catalog=sc.catalog
        )
        for sc in map(random_scenario, range(3))
        for blanks in range(3)
    ]
    expected = [outcome(execute_request(request)) for request in requests]
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    registry = MetricsRegistry()
    answered = {"run": 0, "loop": 0}
    failures = []
    deadline = time.monotonic() + 1.5

    def run(i):
        if answered["run"] % 25 == 24:
            tier.invalidate_views(["NotAView"])  # bumps the epoch
        response = cache.run(requests[i])[0]
        # Only this thread stores, so it never sees a put half done.
        for memo in (cache._planners, cache._responses):
            if len(memo) > memo.cap:
                failures.append(("over cap", len(memo), memo.cap))
        return response

    def loop(i):
        return cache.stored_response(requests[i])

    def drive(answer) -> None:
        name = answer.__name__
        rng = random.Random(name)
        try:
            with collecting(registry):
                while time.monotonic() < deadline:
                    i = rng.randrange(len(requests))
                    response = answer(i)
                    if response is None:
                        continue
                    answered[name] += 1
                    if outcome(response) != expected[i]:
                        failures.append((name, i))
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(error)

    threads = [threading.Thread(target=drive, args=(f,)) for f in (run, loop)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert answered["run"] and answered["loop"]
    total = answered["run"] + answered["loop"]
    assert sum(memo_counts(registry).values()) == total
    snapshot = registry.snapshot()
    assert sum(
        snapshot.counter_value("repro_serving_planner_path_total", path=path)
        for path in (WARM_LOCAL, WARM_SHARED, COLD)
    ) == total
