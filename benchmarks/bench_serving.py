"""Benchmark — the always-on rewriting daemon under mixed traffic.

The daemon's pitch over the batch service is *statefulness*: a
long-lived process keeps planners and the cross-worker memo tier warm
across requests, so the dashboard's hot query shapes pay their planner
warm-up once per fingerprint instead of once per request — while view
updates arriving mid-stream evict exactly the affected fingerprints and
force honest cold re-planning.

Three measurements, four gates:

1. **Mixed hot/cold workload** through a real socket: interleaved hot
   requests (repeated fingerprints), cold requests (one-off view-subset
   fingerprints) and periodic base-table updates that re-chill the hot
   set. Records sustained requests/sec and p99 latency — the numbers a
   deployment would see, including JSONL framing and syscall overhead —
   and how many of the requests published a memo. A *count* gates:
   once every hot text has been sent, re-sending them ``HOT_RESENDS``
   more times with no update in between must add zero publishes (a
   planner that learned nothing has nothing to publish).
2. **Warm-vs-cold A/B** in process (no socket noise): importing a hot
   fingerprint's memo from the *shared* tier must be at least
   ``MIN_WARM_SPEEDUP``x faster than planning it cold. This is the
   whole reason the memo tier exists, so it gates.
3. **Live invalidation**: a view update through the running daemon must
   bump the epoch and evict without a restart, and every post-update
   response must match a cold planner over the post-update catalog.

As everywhere in ``benchmarks/``, parity is asserted before any timing
is trusted: warm responses are compared field-for-field against
``execute_request`` cold plans.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import pytest

from repro.bench import time_best
from repro.blocks.to_sql import block_to_sql
from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.serving import PlannerCache, RewriteDaemon, ServingClient
from repro.serving.memo import LocalMemoTier, create_memo_tier
from repro.serving.worker import COLD, WARM_SHARED
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.workloads.random_queries import random_scenario

#: Scenario driving the socket workload (needs >= 2 views for subsets).
DAEMON_SEED = 7
#: Hot fingerprints in the in-process A/B.
N_HOT_FINGERPRINTS = 6
#: Rounds of the mixed workload; each round ends in a view update that
#: re-chills the hot fingerprints.
N_ROUNDS = 4
#: Hot requests per round (all hit the same fingerprint).
HOT_PER_ROUND = 24
#: Times the hot texts are re-sent for the publish-count gate.
HOT_RESENDS = 3
#: The acceptance gate: warm-starting a hot fingerprint from the shared
#: memo tier must beat cold planning by at least this factor.
MIN_WARM_SPEEDUP = 2.0


def scenario_with_views(seed: int, minimum: int = 2):
    for s in range(seed, seed + 50):
        sc = random_scenario(s)
        if len(sc.views) >= minimum:
            return sc
    raise AssertionError("no multi-view scenario found")


@contextlib.contextmanager
def daemon_on_thread(catalog, **kwargs):
    """A RewriteDaemon on a background event-loop thread.

    Self-contained twin of ``tests/serving/conftest.running_daemon`` —
    the benchmarks directory must stay importable without the test
    package on ``sys.path``.
    """
    import asyncio
    import threading

    daemon = RewriteDaemon(catalog, **kwargs)
    bound = threading.Event()
    failure: list = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(
                daemon.start(host="127.0.0.1", port=0)
            )
            bound.set()
            loop.run_until_complete(daemon.serve_forever())
        except BaseException as error:
            failure.append(error)
            bound.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert bound.wait(timeout=30), "daemon did not bind in time"
    if failure:
        raise failure[0]
    try:
        yield daemon
    finally:
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon did not shut down"


def rewriting_sqls(response) -> list[str]:
    return [r.sql() for r in response.rewritings]


def assert_cold_parity(doc: dict, request: RewriteRequest, context: str):
    """A daemon envelope must match a fresh cold planner bit for bit."""
    assert doc["ok"], f"{context}: {doc.get('error')}"
    cold = execute_request(request)
    got = [r["sql"] for r in doc["result"]["rewritings"]]
    assert got == rewriting_sqls(cold), f"{context}: rewritings diverge"
    assert doc["result"]["original_cost"] == cold.original_cost, context


# ----------------------------------------------------------------------
# 1. Mixed hot/cold workload over the socket


def run_mixed_workload(quick: bool = False) -> dict:
    sc = scenario_with_views(DAEMON_SEED)
    db = Database(sc.catalog)
    for name, rows in sc.instance.items():
        db.load(name, rows)
    hot_sql = block_to_sql(sc.query)
    subset_names = [view.name for view in sc.views]
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)

    rounds = 2 if quick else N_ROUNDS
    hot_per_round = 8 if quick else HOT_PER_ROUND

    latencies: list[float] = []
    updates = 0
    registry = MetricsRegistry()

    def published() -> int:
        return registry.snapshot().counter_value(
            "repro_serving_shared_memo_publishes_total",
            outcome="published",
        )

    with daemon_on_thread(
        sc.catalog, database=db, metrics=registry
    ) as daemon:
        with ServingClient.connect(
            ("127.0.0.1", daemon.tcp_port)
        ) as client:
            started = time.perf_counter()
            for round_no in range(rounds):
                # Hot: one fingerprint, re-asked over and over.
                for _ in range(hot_per_round):
                    t0 = time.perf_counter()
                    doc = client.rewrite(hot_sql, tenant="dash")
                    latencies.append(time.perf_counter() - t0)
                    assert doc["ok"], doc.get("error")
                # Cold-ish: per-view-subset fingerprints, asked once.
                for name in subset_names:
                    t0 = time.perf_counter()
                    doc = client.rewrite(hot_sql, views=[name])
                    latencies.append(time.perf_counter() - t0)
                    assert doc["ok"], doc.get("error")
                # An update lands mid-stream: affected fingerprints are
                # evicted and the next round's first hits plan cold —
                # that is what keeps the workload genuinely mixed.
                row = [round_no + 100] * width
                update = client.update(table, insert=[row])
                assert update["ok"], update.get("error")
                updates += 1
            elapsed = time.perf_counter() - started
            publishes = published()

            # Parity after the final update, against a cold planner on
            # the *post-update* catalog.
            final = client.rewrite(hot_sql)
            assert_cold_parity(
                final,
                RewriteRequest(query=sc.query, catalog=sc.catalog),
                "mixed workload (post-update)",
            )

            # The publish-count gate: with every hot text sent once
            # since the last update, re-sending them publishes nothing.
            def send_hot_texts() -> None:
                assert client.rewrite(hot_sql, tenant="dash")["ok"]
                for name in subset_names:
                    assert client.rewrite(hot_sql, views=[name])["ok"]

            send_hot_texts()
            settled = published()
            for _ in range(HOT_RESENDS):
                send_hot_texts()
            resend_publishes = published() - settled
            assert resend_publishes == 0, (
                f"serving regression: {resend_publishes} memo publishes "
                f"while re-sending {1 + len(subset_names)} hot texts "
                f"{HOT_RESENDS}x with no update in between (expected 0)"
            )

    n = len(latencies)
    ordered = sorted(latencies)
    p99 = ordered[min(n - 1, int(n * 0.99))]
    return {
        "rounds": rounds,
        "requests": n,
        "publishes": publishes,
        "hot_resend_publishes": resend_publishes,
        "updates": updates,
        "hot_per_round": hot_per_round,
        "cold_subsets_per_round": len(subset_names),
        "elapsed_seconds": elapsed,
        "sustained_rps": n / elapsed if elapsed > 0 else None,
        "p50_seconds": statistics.median(ordered),
        "p99_seconds": p99,
        "parity": "ok",
    }


# ----------------------------------------------------------------------
# 2. Warm shared-memo path vs cold planning, in process


def hot_fingerprint_requests(count: int) -> list[RewriteRequest]:
    requests = []
    seed = 0
    while len(requests) < count:
        sc = random_scenario(seed)
        seed += 1
        requests.append(
            RewriteRequest(query=sc.query, catalog=sc.catalog)
        )
    return requests


def run_warm_cold_ab(repeats: int = 5, quick: bool = False) -> dict:
    count = 3 if quick else N_HOT_FINGERPRINTS
    timing_repeats = max(2, min(repeats, 3) if quick else repeats)
    requests = hot_fingerprint_requests(count)

    # Publish every fingerprint's memo into a genuinely shared tier —
    # the same segment a sibling worker process would attach to.
    tier = create_memo_tier()
    try:
        seeder = PlannerCache(tier)
        for request in requests:
            _r, key, view_names, export, path = seeder.run(request)
            assert path == COLD
            tier.publish(key, view_names, export)

        def run_cold() -> None:
            # A fresh cache over an empty tier: full planner warm-up.
            for request in requests:
                cache = PlannerCache(LocalMemoTier())
                _r, _k, _v, _e, path = cache.run(request)
                assert path == COLD

        def run_warm() -> None:
            # A fresh cache over the *populated shared* tier: the
            # import_memos warm-start a new worker process gets.
            for request in requests:
                cache = PlannerCache(tier)
                _r, _k, _v, _e, path = cache.run(request)
                assert path == WARM_SHARED

        # Parity first: the warm path must reproduce cold plans exactly.
        for request in requests:
            warm, _k, _v, _e, _p = PlannerCache(tier).run(request)
            cold = execute_request(request)
            assert rewriting_sqls(warm) == rewriting_sqls(cold)
            assert warm.original_cost == cold.original_cost

        cold_seconds = time_best(run_cold, repeats=timing_repeats)
        warm_seconds = time_best(run_warm, repeats=timing_repeats)
    finally:
        tier.close()
        tier.unlink()

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else None
    assert speedup is not None and speedup >= MIN_WARM_SPEEDUP, (
        f"serving regression: warm shared-memo path is {speedup:.2f}x "
        f"cold planning on hot fingerprints (floor {MIN_WARM_SPEEDUP}x)"
    )
    return {
        "fingerprints": count,
        "shared_tier": tier.name is not None,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "parity": "ok",
    }


# ----------------------------------------------------------------------
# 3. View-update invalidation without a restart


def run_live_invalidation() -> dict:
    sc = scenario_with_views(DAEMON_SEED)
    db = Database(sc.catalog)
    for name, rows in sc.instance.items():
        db.load(name, rows)
    sql = block_to_sql(sc.query)
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)

    with daemon_on_thread(sc.catalog, database=db) as daemon:
        with ServingClient.connect(
            ("127.0.0.1", daemon.tcp_port)
        ) as client:
            assert client.rewrite(sql)["ok"]  # publish the fingerprint
            epoch_before = client.ping()["result"]["epoch"]

            t0 = time.perf_counter()
            update = client.update(table, insert=[[1] * width])
            update_seconds = time.perf_counter() - t0
            assert update["ok"], update.get("error")
            result = update["result"]
            assert result["epoch"] > result["epoch_before"]
            assert set(result["invalidated_views"])

            # Same daemon, same connection: serving continues and the
            # response matches a cold planner on the fresh statistics.
            epoch_after = client.ping()["result"]["epoch"]
            assert epoch_after > epoch_before
            assert_cold_parity(
                client.rewrite(sql),
                RewriteRequest(query=sc.query, catalog=sc.catalog),
                "live invalidation",
            )
    return {
        "table": table,
        "epoch_before": epoch_before,
        "epoch_after": epoch_after,
        "invalidated_views": sorted(result["invalidated_views"]),
        "update_seconds": update_seconds,
        "restart_required": False,
        "parity": "ok",
    }


# ----------------------------------------------------------------------


def collect_serving_metrics(repeats: int = 5, quick: bool = False) -> dict:
    """Daemon throughput, memo-tier speedup and live invalidation."""
    ab = run_warm_cold_ab(repeats=repeats, quick=quick)
    mixed = run_mixed_workload(quick=quick)
    invalidation = run_live_invalidation()
    return {
        "workload": "mixed-hot-cold-daemon",
        "requests": mixed["requests"],
        "publishes": mixed["publishes"],
        "sustained_rps": mixed["sustained_rps"],
        "p99_seconds": mixed["p99_seconds"],
        "mixed": mixed,
        "warm_vs_cold": ab,
        "invalidation": invalidation,
        "warm_speedup": ab["warm_speedup"],
        "parity": "ok",
    }


# ----------------------------------------------------------------------
# pytest entry points (the benchmarks/ suite is also runnable directly)


def test_warm_shared_memo_beats_cold(benchmark):
    requests = hot_fingerprint_requests(3)
    tier = LocalMemoTier()
    seeder = PlannerCache(tier)
    for request in requests:
        _r, key, view_names, export, _p = seeder.run(request)
        tier.publish(key, view_names, export)

    def warm_pass():
        for request in requests:
            cache = PlannerCache(tier)
            response, _k, _v, _e, path = cache.run(request)
            assert path == WARM_SHARED
        return response

    warm = benchmark(warm_pass)
    cold = execute_request(requests[-1])
    assert rewriting_sqls(warm) == rewriting_sqls(cold)


def test_daemon_hot_loop_under_benchmark(benchmark):
    sc = random_scenario(DAEMON_SEED)
    sql = block_to_sql(sc.query)
    with daemon_on_thread(sc.catalog) as daemon:
        with ServingClient.connect(
            ("127.0.0.1", daemon.tcp_port)
        ) as client:
            client.rewrite(sql)  # warm the fingerprint

            def hot_request():
                doc = client.rewrite(sql)
                assert doc["ok"]
                return doc

            doc = benchmark(hot_request)
    assert_cold_parity(
        doc,
        RewriteRequest(query=sc.query, catalog=sc.catalog),
        "hot loop",
    )


def test_mixed_workload_gates():
    metrics = collect_serving_metrics(quick=True)
    assert metrics["warm_speedup"] >= MIN_WARM_SPEEDUP
    assert metrics["invalidation"]["restart_required"] is False
    assert metrics["parity"] == "ok"


if __name__ == "__main__":
    import json

    print(json.dumps(collect_serving_metrics(), indent=2))
