"""The concurrent batch service: grouping, modes, deadlines, warm-up."""

from __future__ import annotations

import json
import pickle
from types import SimpleNamespace

import pytest

from repro import Catalog, table
from repro.cli import main
from repro.obs.budget import SearchBudget
from repro.service import (
    BATCH_DEADLINE,
    BatchDeadline,
    RewriteRequest,
    catalog_fingerprint,
    chunk_groups,
    execute_request,
    group_requests,
    refused_response,
    request_group_key,
    rewrite_batch,
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
    """Stand in for ``ProcessPoolExecutor``: round-trip every submitted
    payload through pickle as a real pool would, record it, and run its
    task in this process only when its result is read.

    Futures whose submit index is in ``failing`` raise from
    ``result()``; ``before_first_result`` runs once, ahead of the first
    task. Returns a namespace with ``payloads`` (what was submitted, as
    unpickled), ``answered`` (the request ids the pool, not a demotion,
    answered) and ``running`` (true while a pool task runs).
    """
    from repro.service import pool as pool_module

    pool = SimpleNamespace(payloads=[], answered=[], running=False)

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
            pool.running = True
            try:
                outcome = pickle.loads(pickle.dumps(self.task(self.payload)))
            finally:
                pool.running = False
            pool.answered.extend(r.request_id for r in outcome["responses"])
            return outcome

    class RecordingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, task, payload):
            pool.payloads.append(pickle.loads(pickle.dumps(payload)))
            return LazyFuture(len(pool.payloads) - 1, task,
                              pool.payloads[-1])

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", RecordingPool)
    return pool


def numbered(seeds) -> list[RewriteRequest]:
    """One scenario request per seed, its ``request_id`` its position."""
    return [
        scenario_request(seed, request_id=str(position))
        for position, seed in enumerate(seeds)
    ]


def ids(requests) -> list[int]:
    return [int(request.request_id) for request in requests]


def shipped_positions(payload) -> list[int]:
    return ids(payload["requests"])


def record_slices(monkeypatch, pool) -> list[tuple[bool, list[int]]]:
    """Record every slice run, as ``(ran in the pool, positions)``."""
    from repro.service import pool as pool_module

    runs = []
    real = pool_module._run_slice

    def recording(requests, deadline, registry):
        runs.append((pool.running, ids(requests)))
        return real(requests, deadline, registry)

    monkeypatch.setattr(pool_module, "_run_slice", recording)
    return runs


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
        baseline = rewrite_batch(requests, mode="serial")
        result = rewrite_batch(requests, mode=mode, workers=2)
        assert len(result) == len(requests)
        for got, want in zip(result, baseline):
            assert got.rewritings == want.rewritings
            assert got.exhausted == want.exhausted
        assert result.report["mode"] == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            rewrite_batch([scenario_request(5)], mode="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            rewrite_batch([scenario_request(5)], mode="thread", workers=-1)

    @pytest.mark.parametrize("workers", [0, None])
    def test_zero_or_no_workers_means_cpu_count(self, workers):
        result = rewrite_batch(
            [scenario_request(5)] * 2, mode="thread", workers=workers
        )
        assert result.report["workers"] >= 1

    def test_plain_strings_rejected(self):
        with pytest.raises(TypeError):
            rewrite_batch(["SELECT 1"], mode="serial")

    def test_auto_small_batch_is_serial(self):
        result = rewrite_batch(
            [scenario_request(5)] * 2, mode="auto", workers=4
        )
        assert result.report["mode"] == "serial"

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        result = rewrite_batch([scenario_request(5)], mode="thread")
        assert result.report["workers"] == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        result = rewrite_batch([scenario_request(5)], mode="thread")
        assert result.report["workers"] == 64


class TestSlicing:
    """Thread and process mode cut the batch into a few contiguous
    slices; the caller ships all but its share and runs that itself."""

    def test_slices_tile_the_batch_in_submission_order(self, monkeypatch):
        pool = recording_pool(monkeypatch)
        runs = record_slices(monkeypatch, pool)
        requests = numbered(range(100))
        result = rewrite_batch(requests, mode="process", workers=2)
        # 2 workers x 4 slices; the caller keeps 8 // 2 of them.
        assert result.report["chunks"] == 8
        shipped = [shipped_positions(p) for p in pool.payloads]
        own = [positions for in_pool, positions in runs if not in_pool]
        assert len(shipped) == len(own) == 4
        assert [positions for in_pool, positions in runs if in_pool] == (
            shipped
        )
        # Contiguous runs that tile the batch in submission order, each
        # request in exactly one of them.
        for positions in shipped + own:
            assert positions == list(range(positions[0], positions[-1] + 1))
        assert [
            p for run in sorted(shipped + own) for p in run
        ] == list(range(100))
        # Balanced by request count: 100 / 8 is 13 or 12 each.
        assert [len(run) for run in shipped + own] == [13] * 4 + [12] * 4
        # Only shipped requests crossed pickle, both ways.
        flat_own = {p for run in own for p in run}
        assert not flat_own & {p for run in shipped for p in run}
        assert sorted(map(int, pool.answered)) == sorted(
            p for run in shipped for p in run
        )
        baseline = rewrite_batch(requests, mode="serial")
        assert [r.rewritings for r in result] == [
            r.rewritings for r in baseline
        ]

    def test_caller_fingerprints_only_its_own_share(self, monkeypatch):
        from repro.service import batcher

        pool = recording_pool(monkeypatch)
        keyed = []
        real = batcher.request_group_key

        def counting(request):
            keyed.append((pool.running, int(request.request_id)))
            return real(request)

        monkeypatch.setattr(batcher, "request_group_key", counting)
        rewrite_batch(numbered(range(40)), mode="process", workers=2)
        shipped = {
            p for payload in pool.payloads for p in shipped_positions(payload)
        }
        by_caller = [p for in_pool, p in keyed if not in_pool]
        assert shipped and by_caller
        assert sorted(by_caller) == sorted(set(range(40)) - shipped)
        assert sorted(p for in_pool, p in keyed if in_pool) == sorted(shipped)

    def test_slices_ship_requests_and_return_responses_only(
        self, monkeypatch
    ):
        # No planner state rides either way: a slice ships what its
        # runner needs to plan cold, and returns its responses.
        from repro.service.pool import _ship_slice

        pool = recording_pool(monkeypatch)
        requests = [scenario_request(5)] * 12 + [
            scenario_request(seed) for seed in range(6, 16)
        ]
        result = rewrite_batch(requests, mode="process", workers=2)
        assert pool.payloads
        for payload in pool.payloads:
            assert set(payload) == {
                "requests", "expires_at", "collect_metrics",
            }
            outcome = _ship_slice(payload)
            assert set(outcome) == {"responses", "groups", "metrics"}
            assert len(outcome["responses"]) == len(payload["requests"])
        # Groups are counted per slice: seed 5's twelve copies span four
        # of the eight slices, beside ten one-request groups.
        assert result.report["groups"] == 14

    def test_small_batch_ships_one_request_per_slice(self, monkeypatch):
        pool = recording_pool(monkeypatch)
        result = rewrite_batch(
            numbered(range(3)), mode="process", workers=2
        )
        assert (result.report["chunks"], result.report["groups"]) == (3, 3)
        assert [shipped_positions(p) for p in pool.payloads] == [[0], [1]]

    def test_one_worker_ships_every_slice(self, monkeypatch):
        pool = recording_pool(monkeypatch)
        runs = record_slices(monkeypatch, pool)
        result = rewrite_batch(
            numbered(range(10)), mode="process", workers=1
        )
        assert result.report["chunks"] == 4
        assert [shipped_positions(p) for p in pool.payloads] == [
            [0, 1, 2], [3, 4, 5], [6, 7], [8, 9],
        ]
        assert all(in_pool for in_pool, _ in runs)

    def test_failed_slice_is_rerun_in_process(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, collecting

        pool = recording_pool(monkeypatch, failing={1})
        requests = numbered(range(40))
        registry = MetricsRegistry()
        with collecting(registry):
            result = rewrite_batch(requests, mode="process", workers=2)
        lost = shipped_positions(pool.payloads[1])
        assert len(lost) == 5
        assert registry.snapshot().counter_value(
            "repro_service_chunk_demotions_total"
        ) == 1
        # The other shipped slices' responses came from the pool.
        shipped = [p for payload in pool.payloads
                   for p in shipped_positions(payload)]
        assert sorted(map(int, pool.answered)) == sorted(
            set(shipped) - set(lost)
        )
        baseline = rewrite_batch(requests, mode="serial")
        for got, want in zip(result, baseline):
            assert got.rewritings == want.rewritings
            assert got.exhausted == want.exhausted
            assert got.error == want.error


class TestDeadline:
    def test_bundle_dequeued_after_expiry_refuses_every_member(
        self, monkeypatch
    ):
        # The allowance is one instant for the whole batch: a slice that
        # waited in the pool's queue past it must not start it afresh.
        import time

        from repro.obs.metrics import MetricsRegistry, collecting

        pool = recording_pool(
            monkeypatch, before_first_result=lambda: time.sleep(0.06)
        )
        registry = MetricsRegistry()
        with collecting(registry):
            result = rewrite_batch(
                numbered(range(20)), mode="process", workers=2,
                deadline=0.05,
            )
        shipped = [
            p for payload in pool.payloads for p in shipped_positions(payload)
        ]
        assert len(pool.payloads) > 1
        # Nothing was demoted, and every shipped member was refused.
        assert sorted(map(int, pool.answered)) == sorted(shipped)
        for position in shipped:
            response = result[position]
            assert response.degraded
            assert BATCH_DEADLINE in response.budget["tripped"]
            assert response.error is None
        assert registry.snapshot().counter_value(
            "repro_service_refusals_total"
        ) == result.degraded_count

    def test_spent_deadline_refuses_every_request(self):
        requests = [scenario_request(seed) for seed in range(4)]
        result = rewrite_batch(requests, mode="serial", deadline=0.0)
        assert len(result) == 4
        assert result.degraded_count == 4
        assert result.exhausted_count == 4
        for response in result:
            assert BATCH_DEADLINE in response.budget["tripped"]
            assert response.error is None  # degraded, not failed

    def test_generous_deadline_runs_normally(self):
        requests = [scenario_request(seed) for seed in range(4)]
        result = rewrite_batch(requests, mode="serial", deadline=60.0)
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


def count_planners(monkeypatch) -> list:
    """Record every planner ``repro.service.pool`` builds."""
    from repro.service import pool as pool_module

    built = []

    class CountingPlanner(pool_module.RewritePlanner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(pool_module, "RewritePlanner", CountingPlanner)
    return built


class TestWarmth:
    """Warmth lives for one call: serial mode keeps one planner per
    group, every other slice plans each of its groups cold, and nothing
    outlives the call."""

    def test_serial_mode_shares_one_planner_per_group(self, monkeypatch):
        built = count_planners(monkeypatch)
        requests = [scenario_request(5)] * 12 + [scenario_request(6)]
        result = rewrite_batch(requests, mode="serial", workers=2)
        # The whole batch is one slice: group 5's twelve requests share
        # its planner.
        assert (result.report["groups"], result.report["chunks"]) == (2, 1)
        assert len(built) == 2
        assert built[0].stats.substitution_hits > 0
        rewrite_batch(requests, mode="serial", workers=2)
        assert len(built) == 4  # the next call starts cold

    def test_warm_results_equal_cold_results(self):
        # The second copy runs on the planner the first one warmed.
        request = scenario_request(5)
        warm = rewrite_batch([request] * 2, mode="serial")
        cold = rewrite_batch([request], mode="serial")
        assert warm[0].rewritings == warm[1].rewritings
        assert warm[1].rewritings == cold[0].rewritings

    def test_count_budgets_ignore_group_warmth(self):
        # The determinism rule: a count-budgeted request must report the
        # same trip point alone or after warm-up traffic.
        budget = SearchBudget(max_mappings=2, max_candidates=1)
        alone = rewrite_batch(
            [scenario_request(5, budget=budget)], mode="serial"
        )
        # Four requests warm the group planner ahead of the budgeted one.
        after = rewrite_batch(
            [scenario_request(5)] * 4 + [scenario_request(5, budget=budget)],
            mode="serial",
        )
        assert alone[0].rewritings == after[4].rewritings
        assert alone[0].exhausted == after[4].exhausted
        assert alone[0].budget == after[4].budget


class TestTraceStitching:
    def test_batch_trace_merges_traced_requests(self):
        requests = [scenario_request(seed, trace=True) for seed in (3, 4)]
        result = rewrite_batch(requests, mode="serial")
        assert result.trace is not None
        assert result.trace.counters["traced_requests"] == 2
        assert result.trace.root.name == "batch"

    def test_untraced_batch_has_no_trace(self):
        result = rewrite_batch([scenario_request(3)], mode="serial")
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
            result = rewrite_batch(requests, mode=mode, workers=2)
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
            result = rewrite_batch(requests, mode=mode, workers=2)
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
            result = rewrite_batch(requests, mode=mode, workers=2)
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
        result = rewrite_batch([scenario_request(5)], mode="serial")
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
        baseline = rewrite_batch(requests, mode="serial")
        result = rewrite_batch(requests, mode="process", workers=2)
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
        clean = rewrite_batch([good, good], mode=mode, workers=2)
        result = rewrite_batch(
            [good, RewriteRequest(self.DEEP, catalog), good],
            mode=mode,
            workers=2,
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
