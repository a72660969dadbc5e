"""Maintenance-delta invalidation of the shared memo tier, 40 seeds.

The pinned contract: a view update flowing through
:mod:`repro.maintenance` must invalidate *exactly* the affected
fingerprints — entries whose view set intersects the updated views are
evicted, all others survive — and every post-update response must match
a cold planner over the post-update catalog (stale-epoch reads fall
back to cold planning, never to stale rewritings).
"""

from __future__ import annotations

import json

import pytest

from repro.blocks.to_sql import block_to_sql
from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry, set_global_metrics
from repro.serving import PlannerCache, RewriteDaemon
from repro.serving.memo import LocalMemoTier
from repro.serving.protocol import request_from_wire, serving_group_key
from repro.serving.worker import COLD, WARM_LOCAL, WARM_SHARED
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.workloads.random_queries import random_scenario

SEEDS = range(0, 40)


def rewriting_sqls(response):
    return [r.sql() for r in response.rewritings]


def make_daemon(sc):
    db = Database(sc.catalog)
    for name, rows in sc.instance.items():
        db.load(name, rows)
    # A LocalMemoTier keeps the 40-seed sweep free of shared-memory
    # segments; the eviction/epoch logic under test is tier-agnostic
    # (tests/serving/test_memo_tier.py pins the shared implementation).
    return RewriteDaemon(
        sc.catalog, database=db, memo_tier=LocalMemoTier()
    )


def wire(sc, view=None) -> dict:
    """The rewrite op of the scenario's query, or of ``view``'s own
    definition pinned to ``view``: a planner that learns something
    exports it, and the core publishes only a non-empty export."""
    if view is None:
        return {"sql": block_to_sql(sc.query)}
    return {"sql": block_to_sql(view.block), "views": [view.name]}


def run_and_publish(daemon, obj):
    """One rewrite through the daemon's core, which publishes its memo
    export: the response envelope, the fingerprint and the planner path."""
    registry = MetricsRegistry()
    previous = set_global_metrics(registry)  # seen by the worker thread
    try:
        doc = json.loads(daemon.handle(json.dumps(obj), 1))
    finally:
        set_global_metrics(previous)
    assert doc["ok"], doc
    key = serving_group_key(request_from_wire(obj, daemon.catalog))
    (path,) = (
        path
        for path in (WARM_LOCAL, WARM_SHARED, COLD)
        if registry.snapshot().counter_value(
            "repro_serving_planner_path_total", path=path
        )
    )
    return doc["result"], key, path


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_invalidation_is_exact_with_cold_parity(seed):
    sc = random_scenario(seed)
    daemon = make_daemon(sc)
    try:
        # One fingerprint per view subset plus the full-catalog one.
        requests = {"all": wire(sc)}
        for view in sc.views:
            requests[view.name] = wire(sc, view)
        keys = {}
        for label, obj in requests.items():
            _response, key, _path = run_and_publish(daemon, obj)
            keys[label] = key
        published = set(daemon.memo.keys())
        assert set(keys.values()) <= published

        # The update: insert one row into a base table some view reads.
        table = next(
            rel.name
            for view in sc.catalog.views.values()
            for rel in view.block.from_
        )
        width = len(sc.catalog.tables[table].columns)
        epoch_before = daemon.memo.epoch()
        summary = daemon.apply_update(table, inserts=[(1,) * width])
        affected = set(summary["invalidated_views"])
        assert affected == {
            name
            for name, view in sc.catalog.views.items()
            if any(rel.name == table for rel in view.block.from_)
        }
        assert daemon.memo.epoch() > epoch_before

        # Exactness: entries over affected views are gone (by eviction
        # or by key rotation from the refreshed statistics); entries
        # pinned to unaffected views survive untouched.
        survivors = set(daemon.memo.keys())
        for label, key in keys.items():
            touches_affected = label == "all" or label in affected
            if touches_affected:
                assert key not in survivors, (seed, label)
            else:
                assert key in survivors, (seed, label)

        # Parity: every re-run equals a cold planner on the fresh state.
        for label, obj in requests.items():
            warm, _key, _path = run_and_publish(daemon, obj)
            cold = execute_request(request_from_wire(obj, sc.catalog))
            assert [r["sql"] for r in warm["rewritings"]] == rewriting_sqls(
                cold
            ), (seed, label)
            assert warm["original_cost"] == cold.original_cost
    finally:
        daemon.close()


@pytest.mark.parametrize("seed", range(0, 8))
def test_stale_local_planner_never_served_after_delta(seed):
    # A worker with a locally cached planner must notice the epoch bump
    # (one header read) and revalidate; since the entry is evicted it
    # plans cold rather than serving the pre-delta ranking.
    sc = random_scenario(seed)
    daemon = make_daemon(sc)
    try:
        request = request_from_wire(wire(sc), sc.catalog)
        _r, key, path = run_and_publish(daemon, wire(sc))
        _r2, _k2, path2 = run_and_publish(daemon, wire(sc))
        assert path2 == WARM_LOCAL

        # A second reader simulating another worker process.
        other = PlannerCache(daemon.memo)
        other.run(request)

        table = next(
            rel.name
            for view in sc.catalog.views.values()
            for rel in view.block.from_
        )
        width = len(sc.catalog.tables[table].columns)
        daemon.apply_update(table, inserts=[(2,) * width])

        for cache in (daemon._planner_cache, other):
            response, _key, _views, _export, path3 = cache.run(request)
            assert path3 != WARM_LOCAL
            cold = execute_request(
                RewriteRequest(query=sc.query, catalog=sc.catalog)
            )
            assert rewriting_sqls(response) == rewriting_sqls(cold)
    finally:
        daemon.close()
