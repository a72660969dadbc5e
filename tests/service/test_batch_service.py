"""The concurrent batch service: grouping, modes, deadlines, warm-up."""

from __future__ import annotations

import json

import pytest

from repro import Catalog, table
from repro.cli import main
from repro.obs.budget import SearchBudget
from repro.service import (
    BATCH_DEADLINE,
    BatchDeadline,
    BatchRewriteService,
    RewriteRequest,
    catalog_fingerprint,
    chunk_groups,
    execute_request,
    group_requests,
    refused_response,
    request_group_key,
)
from repro.workloads.random_queries import random_scenario


def scenario_request(seed: int, **overrides) -> RewriteRequest:
    scenario = random_scenario(seed)
    defaults = dict(
        query=scenario.query,
        catalog=scenario.catalog,
        views=tuple(scenario.views),
    )
    defaults.update(overrides)
    return RewriteRequest(**defaults)


def recording_pool(monkeypatch, *, failing=(), before_first_result=None):
    """Stand in for ``ProcessPoolExecutor``: record every submitted
    payload, run a task in this process only when its result is read.

    Futures whose submit index is in ``failing`` raise from
    ``result()``; ``before_first_result`` runs once, ahead of the first
    task. Returns ``(payloads, answered)``: what was submitted, and the
    request positions the pool (not a demotion) answered.
    """
    from repro.service import pool as pool_module

    payloads, answered = [], []

    class LazyFuture:
        def __init__(self, index, task, payload):
            self.index, self.task, self.payload = index, task, payload

        def result(self):
            nonlocal before_first_result
            if before_first_result is not None:
                before_first_result()
                before_first_result = None
            if self.index in failing:
                raise RuntimeError("worker died")
            outcome = self.task(self.payload)
            answered.extend(
                position
                for chunk in outcome["chunks"]
                for position, _ in chunk["results"]
            )
            return outcome

    class RecordingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, task, payload):
            payloads.append(payload)
            return LazyFuture(len(payloads) - 1, task, payload)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", RecordingPool)
    return payloads, answered


def shipped_positions(payload) -> list[int]:
    return [
        position
        for chunk in payload["chunks"]
        for position, _ in chunk["members"]
    ]


class TestGrouping:
    def test_equal_but_distinct_catalogs_coalesce(self):
        # Two scenarios from the same seed build equal catalogs that are
        # different objects — the value-based fingerprint must coalesce
        # them (the JSONL deserialization case).
        a, b = random_scenario(5), random_scenario(5)
        assert a.catalog is not b.catalog
        assert catalog_fingerprint(a.catalog) == catalog_fingerprint(b.catalog)
        requests = [
            RewriteRequest(query=a.query, catalog=a.catalog,
                           views=tuple(a.views)),
            RewriteRequest(query=b.query, catalog=b.catalog,
                           views=tuple(b.views)),
        ]
        groups = group_requests(requests)
        assert len(groups) == 1
        assert len(groups[0].members) == 2

    def test_different_view_sets_split(self):
        a, b = random_scenario(5), random_scenario(6)
        requests = [
            RewriteRequest(query=a.query, catalog=a.catalog,
                           views=tuple(a.views)),
            RewriteRequest(query=b.query, catalog=b.catalog,
                           views=tuple(b.views)),
        ]
        assert len(group_requests(requests)) == 2

    def test_semantics_splits_groups(self):
        a = random_scenario(5)
        requests = [
            RewriteRequest(query=a.query, catalog=a.catalog,
                           views=tuple(a.views), use_set_semantics=True),
            RewriteRequest(query=a.query, catalog=a.catalog,
                           views=tuple(a.views), use_set_semantics=False),
        ]
        assert len(group_requests(requests)) == 2

    def test_group_key_is_hashable_and_stable(self):
        request = scenario_request(5)
        assert request_group_key(request) == request_group_key(request)
        {request_group_key(request): 1}  # hashable

    def test_positions_preserved_in_batch_order(self):
        requests = [scenario_request(5), scenario_request(6),
                    scenario_request(5)]
        groups = group_requests(requests)
        positions = sorted(
            p for g in groups for p, _ in g.members
        )
        assert positions == [0, 1, 2]


class TestChunking:
    def test_small_groups_stay_whole(self):
        groups = group_requests([scenario_request(5)] * 3)
        chunks = chunk_groups(groups, workers=8, min_chunk=4)
        assert len(chunks) == 1
        assert len(chunks[0][1]) == 3

    def test_large_group_splits_up_to_workers(self):
        groups = group_requests([scenario_request(5)] * 20)
        chunks = chunk_groups(groups, workers=4, min_chunk=4)
        assert 1 < len(chunks) <= 4
        total = sum(len(members) for _, members in chunks)
        assert total == 20

    def test_never_below_min_chunk(self):
        groups = group_requests([scenario_request(5)] * 10)
        for _, members in chunk_groups(groups, workers=8, min_chunk=4):
            assert len(members) >= 4


class TestModes:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_mode_runs_and_agrees_with_serial(self, mode):
        requests = [scenario_request(seed) for seed in range(8)]
        baseline = BatchRewriteService(mode="serial").submit(requests)
        result = BatchRewriteService(mode=mode, workers=2).submit(requests)
        assert len(result) == len(requests)
        for got, want in zip(result, baseline):
            assert got.rewritings == want.rewritings
            assert got.exhausted == want.exhausted
        assert result.report["mode"] == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchRewriteService(mode="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            BatchRewriteService(mode="thread", workers=-1)

    @pytest.mark.parametrize("workers", [0, None])
    def test_zero_or_no_workers_means_cpu_count(self, workers):
        result = BatchRewriteService(mode="thread", workers=workers).submit(
            [scenario_request(5)] * 2
        )
        assert result.report["workers"] >= 1

    def test_plain_strings_rejected(self):
        with pytest.raises(TypeError):
            BatchRewriteService(mode="serial").submit(["SELECT 1"])

    def test_auto_small_batch_is_serial(self):
        result = BatchRewriteService(mode="auto", workers=4).submit(
            [scenario_request(5)] * 2
        )
        assert result.report["mode"] == "serial"


class TestBundling:
    """Process mode ships a few bundles of whole chunks, not one future
    per chunk."""

    def test_many_chunks_ship_as_a_few_bundles(self, monkeypatch):
        payloads, _ = recording_pool(monkeypatch)
        requests = [scenario_request(seed) for seed in range(100)]
        result = BatchRewriteService(mode="process", workers=2).submit(
            requests
        )
        assert result.report["chunks"] == 100
        assert 2 <= len(payloads) <= 8
        assert sum(len(p["chunks"]) for p in payloads) == 100
        # Every request rides in exactly one bundle, in batch order.
        assert [
            position for p in payloads for position in shipped_positions(p)
        ] == list(range(100))
        # Balanced by request count: ceil(100 / (2 workers * 4)) each.
        assert max(len(shipped_positions(p)) for p in payloads) == 13
        baseline = BatchRewriteService(mode="serial").submit(requests)
        assert [r.rewritings for r in result] == [
            r.rewritings for r in baseline
        ]

    def test_few_chunks_ship_one_per_future(self, monkeypatch):
        payloads, _ = recording_pool(monkeypatch)
        result = BatchRewriteService(mode="process", workers=2).submit(
            [scenario_request(seed) for seed in range(3)]
        )
        assert result.report["chunks"] == 3
        assert [len(p["chunks"]) for p in payloads] == [1, 1, 1]

    def test_failed_bundle_demotes_its_chunks_one_by_one(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, collecting

        payloads, answered = recording_pool(monkeypatch, failing={1})
        requests = [scenario_request(seed) for seed in range(40)]
        registry = MetricsRegistry()
        with collecting(registry):
            result = BatchRewriteService(mode="process", workers=2).submit(
                requests
            )
        lost = shipped_positions(payloads[1])
        assert len(payloads[1]["chunks"]) > 1
        assert registry.snapshot().counter_value(
            "repro_service_chunk_demotions_total"
        ) == len(payloads[1]["chunks"])
        # The other bundles' responses came from the pool.
        assert sorted(answered + lost) == list(range(40))
        baseline = BatchRewriteService(mode="serial").submit(requests)
        for got, want in zip(result, baseline):
            assert got.rewritings == want.rewritings
            assert got.exhausted == want.exhausted
            assert got.error == want.error


class TestDeadline:
    def test_bundle_dequeued_after_expiry_refuses_every_member(
        self, monkeypatch
    ):
        # The allowance is one instant for the whole batch: a task that
        # waited in the pool's queue past it must not start it afresh.
        import time

        from repro.obs.metrics import MetricsRegistry, collecting

        payloads, answered = recording_pool(
            monkeypatch, before_first_result=lambda: time.sleep(0.06)
        )
        requests = [scenario_request(seed) for seed in range(20)]
        registry = MetricsRegistry()
        with collecting(registry):
            result = BatchRewriteService(mode="process", workers=2).submit(
                requests, deadline=0.05
            )
        assert len(payloads) > 1
        assert sorted(answered) == list(range(20))  # nothing was demoted
        assert result.degraded_count == 20
        for response in result:
            assert BATCH_DEADLINE in response.budget["tripped"]
            assert response.error is None
        assert result.report["planner"]["searches"] == 0
        snapshot = registry.snapshot()
        assert snapshot.counter_value("repro_service_refusals_total") == 20
        assert snapshot.counter_value("repro_planner_searches_total") == 0

    def test_spent_deadline_refuses_every_request(self):
        requests = [scenario_request(seed) for seed in range(4)]
        result = BatchRewriteService(mode="serial").submit(
            requests, deadline=0.0
        )
        assert len(result) == 4
        assert result.degraded_count == 4
        assert result.exhausted_count == 4
        for response in result:
            assert BATCH_DEADLINE in response.budget["tripped"]
            assert response.error is None  # degraded, not failed

    def test_generous_deadline_runs_normally(self):
        requests = [scenario_request(seed) for seed in range(4)]
        result = BatchRewriteService(mode="serial").submit(
            requests, deadline=60.0
        )
        assert result.degraded_count == 0

    def test_overlay_tightens_never_loosens(self):
        deadline = BatchDeadline(10.0)
        request = scenario_request(
            5, budget=SearchBudget(deadline=0.001, max_mappings=7)
        )
        overlay = deadline.overlay(request)
        assert overlay.deadline == 0.001  # the tighter of the two
        assert overlay.max_mappings == 7

    def test_overlay_caps_unbudgeted_requests(self):
        deadline = BatchDeadline(10.0)
        overlay = deadline.overlay(scenario_request(5))
        assert overlay.deadline is not None
        assert overlay.deadline <= 10.0

    def test_no_deadline_passes_budget_through(self):
        deadline = BatchDeadline(None)
        budget = SearchBudget(max_candidates=3)
        request = scenario_request(5, budget=budget)
        assert deadline.overlay(request) is budget
        assert not deadline.expired

    def test_refused_response_shape(self):
        response = refused_response(scenario_request(5))
        assert response.degraded and response.exhausted
        assert response.rewritings == ()
        assert response.budget["mappings_enumerated"] == 0


class TestWarmth:
    def test_serial_service_reuses_planner_across_batches(self):
        service = BatchRewriteService(mode="serial")
        requests = [scenario_request(5)] * 3
        service.submit(requests)
        ((_key, planner),) = service._planners.items()
        hits_before = planner.stats.substitution_hits
        service.submit(requests)
        assert service._planners.items() == [(_key, planner)]
        assert planner.stats.substitution_hits > hits_before

    def test_warm_store_evicts_least_recently_used(self, monkeypatch):
        # The store evicted first-in-first-out: a fingerprint used in
        # every batch was the first to go once the store had filled.
        monkeypatch.setattr(BatchRewriteService, "MEMO_STORE_MAX", 4)
        service = BatchRewriteService(mode="serial")
        hot = [scenario_request(5)]
        others = [[scenario_request(seed)] for seed in (6, 7, 8, 9)]
        keys = {request_group_key(batch[0]) for batch in [hot] + others}
        assert len(keys) == 5
        service.submit(hot)
        hot_key = request_group_key(hot[0])
        planner = service._planners.get(hot_key)
        for batch in others[:3]:  # fill the store to its cap
            service.submit(batch)
        service.submit(hot)
        service.submit(others[3])  # one fingerprint too many
        assert len(service._planners) == 4
        assert service._planners.get(hot_key, None) is planner

    def test_process_mode_stores_memo_for_warm_start(self):
        service = BatchRewriteService(mode="process", workers=2)
        requests = [scenario_request(5)] * 6
        service.submit(requests)
        assert len(service._memo_store) == 1
        result = service.submit(requests)
        assert result.report["memo_entries_imported"] > 0

    def test_memo_entries_imported_counts_real_imports(self, monkeypatch):
        payloads, _ = recording_pool(monkeypatch)
        service = BatchRewriteService(mode="process", workers=2)
        requests = [scenario_request(5)] * 12 + [scenario_request(6)] * 2
        first = service.submit(requests)
        assert first.report["memo_entries_imported"] == 0
        # Serial mode runs live planners: the store's contents are not
        # imports, and reporting must not touch the store.
        service.mode = "serial"
        order = [key for key, _ in service._memo_store.items()]
        stats = service._memo_store.stats()
        assert service.submit(requests).report["memo_entries_imported"] == 0
        assert [key for key, _ in service._memo_store.items()] == order
        assert service._memo_store.stats() == stats
        service.mode = "process"
        del payloads[:]
        shipped = service.submit(requests)
        attached = sum(
            len(chunk["memo"] or ())
            for payload in payloads
            for chunk in payload["chunks"]
        )
        assert attached > 0
        assert shipped.report["memo_entries_imported"] == attached

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        result = BatchRewriteService(mode="thread").submit(
            [scenario_request(5)]
        )
        assert result.report["workers"] == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        result = BatchRewriteService(mode="thread").submit(
            [scenario_request(5)]
        )
        assert result.report["workers"] == 64

    def test_warm_results_equal_cold_results(self):
        service = BatchRewriteService(mode="serial")
        requests = [scenario_request(5)] * 2
        cold = service.submit(requests)
        warm = service.submit(requests)
        for a, b in zip(cold, warm):
            assert a.rewritings == b.rewritings

    def test_count_budgets_ignore_group_warmth(self):
        # The determinism rule: a count-budgeted request must report the
        # same trip point alone or after warm-up traffic.
        budget = SearchBudget(max_mappings=2, max_candidates=1)
        alone = BatchRewriteService(mode="serial").submit(
            [scenario_request(5, budget=budget)]
        )
        service = BatchRewriteService(mode="serial")
        service.submit([scenario_request(5)] * 4)  # warm the group planner
        after = service.submit([scenario_request(5, budget=budget)])
        assert alone[0].rewritings == after[0].rewritings
        assert alone[0].exhausted == after[0].exhausted
        assert alone[0].budget == after[0].budget


class TestTraceStitching:
    def test_batch_trace_merges_traced_requests(self):
        requests = [scenario_request(seed, trace=True) for seed in (3, 4)]
        result = BatchRewriteService(mode="serial").submit(requests)
        assert result.trace is not None
        assert result.trace.counters["traced_requests"] == 2
        assert result.trace.root.name == "batch"

    def test_untraced_batch_has_no_trace(self):
        result = BatchRewriteService(mode="serial").submit(
            [scenario_request(3)]
        )
        assert result.trace is None


class TestMetricsAcrossModes:
    """No double counting: every mode's worker registries are born empty
    and fold into the parent exactly once (see docs/observability.md)."""

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_parent_registry_counts_each_request_once(self, mode):
        from repro.obs.metrics import MetricsRegistry, collecting

        requests = [scenario_request(seed) for seed in range(4)]
        parent = MetricsRegistry()
        with collecting(parent):
            result = BatchRewriteService(mode=mode, workers=2).submit(
                requests
            )
        snapshot = parent.snapshot()
        assert (
            snapshot.counter_value(
                "repro_service_requests_total", outcome="ok"
            )
            == 4
        )
        assert snapshot.counter_value("repro_planner_searches_total") == 4
        assert (
            snapshot.counter_value(
                "repro_service_batches_total",
                mode=result.report["mode"],
            )
            == 1
        )
        from repro.service.executor import REQUEST_SECONDS

        hist = parent.family(REQUEST_SECONDS).labels()
        assert hist.count == 4

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_batch_snapshot_equals_parent_totals(self, mode):
        from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, \
            collecting

        requests = [scenario_request(seed) for seed in range(3)]
        parent = MetricsRegistry()
        with collecting(parent):
            result = BatchRewriteService(mode=mode, workers=2).submit(
                requests
            )
        # The batch snapshot and the parent registry saw the same merge
        # stream — identical totals proves each worker folded in once.
        assert result.metrics is not None
        batch = MetricsSnapshot.from_dict(result.metrics)
        assert batch.as_dict() == parent.snapshot().as_dict()

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_request_scoped_snapshot_and_single_parent_fold(self, mode):
        from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, \
            collecting

        requests = [
            scenario_request(seed, collect_metrics=(seed == 1))
            for seed in range(3)
        ]
        parent = MetricsRegistry()
        with collecting(parent):
            result = BatchRewriteService(mode=mode, workers=2).submit(
                requests
            )
        # Only the opted-in request carries a snapshot, scoped to its
        # own work...
        assert [r.metrics is not None for r in result] == [
            False, True, False,
        ]
        request_view = MetricsSnapshot.from_dict(result[1].metrics)
        assert (
            request_view.counter_value("repro_planner_searches_total") == 1
        )
        # ...and its counts land in the parent exactly once alongside
        # the rest of the batch.
        assert (
            parent.snapshot().counter_value("repro_planner_searches_total")
            == 3
        )

    def test_metrics_off_means_no_snapshots(self):
        result = BatchRewriteService(mode="serial").submit(
            [scenario_request(5)]
        )
        assert result.metrics is None
        assert result[0].metrics is None


class TestRobustness:
    def test_unpicklable_chunk_demotes_to_inprocess(self, monkeypatch):
        # Force every pool submission to fail: the batch must still
        # return complete, correct results via in-process demotion.
        from repro.service import pool as pool_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, *args, **kwargs):
                raise RuntimeError("no workers today")

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", ExplodingPool
        )
        requests = [scenario_request(seed) for seed in range(4)]
        baseline = BatchRewriteService(mode="serial").submit(requests)
        result = BatchRewriteService(mode="process", workers=2).submit(
            requests
        )
        assert len(result) == 4
        for got, want in zip(result, baseline):
            assert got.rewritings == want.rewritings

    #: Nested deep enough that the recursive-descent parser overflows
    #: the interpreter stack — an exception that is not a ReproError.
    DEEP = "SELECT " + "(" * 3000 + "A" + ")" * 3000 + " FROM R"
    GOOD = "SELECT A, SUM(B) FROM R GROUP BY A"

    @pytest.fixture
    def catalog(self):
        return Catalog([table("R", ["A", "B"])])

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_unexpected_exception_fails_one_request_not_the_batch(
        self, mode, catalog
    ):
        good = RewriteRequest(self.GOOD, catalog)
        service = BatchRewriteService(mode=mode, workers=2)
        clean = service.submit([good, good])
        result = service.submit(
            [good, RewriteRequest(self.DEEP, catalog), good]
        )
        assert len(result) == 3
        for got, want in zip((result[0], result[2]), clean):
            assert got.error is None
            assert got.rewritings == want.rewritings
        assert result[1].error.startswith("internal: RecursionError")
        assert result.error_count == 1

    def test_execute_request_propagates_by_default(self, catalog):
        with pytest.raises(RecursionError):
            execute_request(RewriteRequest(self.DEEP, catalog))

    def test_batch_cli_answers_every_line(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE R (A, B);\n")
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "".join(
                json.dumps({"query": sql}) + "\n"
                for sql in (self.GOOD, self.DEEP, self.GOOD)
            )
        )
        code = main(["batch", "--schema", str(schema), str(requests)])
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.splitlines()]
        assert code == 1
        assert [doc["ok"] for doc in docs] == [True, False, True]
        assert docs[1]["error"]["message"].startswith(
            "internal: RecursionError"
        )
        assert "Traceback" not in captured.err
