"""Unit tests for the observability layer: budgets, tracing, degradation.

The contracts under test (see ``src/repro/obs/``):

* budgets never raise — a tripped limit yields partial-but-sound results
  tagged ``exhausted=True`` with the tripped reasons recorded;
* a zero budget does no work and returns empty-but-sound;
* with tracing disabled, ``span()`` allocates nothing (one shared no-op
  context) and ``RewriteResult.trace`` stays ``None``;
* the span tree mirrors the pipeline's *stages*, not the search's size;
* ``rewrite_iteratively`` honors the budget *between* per-view
  iterations (regression: a spent budget must skip remaining views).
"""

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.cache import QueryCache
from repro.core.multiview import all_rewritings, rewrite_iteratively
from repro.core.planner import RewritePlanner
from repro.core.rewriter import RewriteEngine
from repro.obs import (
    BudgetMeter,
    RewriteTrace,
    SearchBudget,
    Tracer,
    ensure_meter,
    span,
    tracing,
)
from repro.obs.trace import _NULL_CONTEXT


@pytest.fixture
def example_4_1(wide_catalog):
    """The paper's Example 4.1: one aggregation view that answers the query."""
    query = parse_query(
        "SELECT A, SUM(E) FROM R1, R2 WHERE C = F GROUP BY A",
        wide_catalog,
    )
    view = parse_view(
        "CREATE VIEW V (VA, VC, VS) AS "
        "SELECT A, C, SUM(E) FROM R1, R2 WHERE C = F GROUP BY A, C",
        wide_catalog,
    )
    wide_catalog.add_view(view)
    return wide_catalog, query, view


@pytest.fixture
def two_view_catalog(rs_catalog):
    """Example 3.1 with the usable view registered twice — at least two
    candidate rewritings exist, so candidate caps have something to cut."""
    query = parse_query(
        "SELECT A, D FROM R1, R2 WHERE B = C AND D >= 5", rs_catalog
    )
    for name in ("V1", "V2"):
        rs_catalog.add_view(
            parse_view(
                f"CREATE VIEW {name} ({name}A, {name}D) AS "
                "SELECT A, D FROM R1, R2 WHERE B = C",
                rs_catalog,
            )
        )
    return rs_catalog, query


class TestBudgetMeter:
    def test_unlimited_budget_normalizes_to_none(self):
        assert SearchBudget().is_unlimited
        assert SearchBudget.unlimited().is_unlimited
        assert ensure_meter(None) is None
        assert ensure_meter(SearchBudget()) is None

    def test_ensure_meter_passes_running_meters_through(self):
        meter = SearchBudget(max_mappings=3).start()
        assert ensure_meter(meter) is meter
        started = ensure_meter(SearchBudget(max_mappings=3))
        assert isinstance(started, BudgetMeter)

    def test_zero_mapping_budget_counts_nothing(self):
        meter = SearchBudget(max_mappings=0).start()
        assert not meter.charge_mapping()
        assert meter.mappings_enumerated == 0
        assert meter.exhausted
        assert meter.tripped == ("max_mappings",)

    def test_zero_candidate_budget_counts_nothing(self):
        meter = SearchBudget(max_candidates=0).start()
        assert not meter.charge_candidate()
        assert meter.candidates_generated == 0
        assert meter.tripped == ("max_candidates",)

    def test_charges_below_the_limit_succeed(self):
        meter = SearchBudget(max_mappings=2).start()
        assert meter.charge_mapping()
        assert meter.charge_mapping()
        assert not meter.charge_mapping()
        assert meter.mappings_enumerated == 2

    def test_expired_deadline_trips_ok(self):
        meter = SearchBudget(deadline=0.0).start()
        assert not meter.ok()
        assert meter.tripped == ("deadline",)

    def test_generous_deadline_does_not_trip(self):
        meter = SearchBudget(deadline=60.0).start()
        assert meter.ok()
        assert not meter.exhausted

    def test_trip_reasons_recorded_once_in_order(self):
        meter = SearchBudget(max_mappings=0, max_candidates=0).start()
        meter.charge_candidate()
        meter.charge_mapping()
        meter.charge_candidate()
        assert meter.tripped == ("max_candidates", "max_mappings")

    def test_as_dict_snapshot(self):
        meter = SearchBudget(max_mappings=1).start()
        meter.charge_mapping()
        snapshot = meter.as_dict()
        assert snapshot["exhausted"] is False
        assert snapshot["mappings_enumerated"] == 1
        assert snapshot["budget"]["max_mappings"] == 1


class TestTracingDisabled:
    def test_span_returns_the_shared_null_context(self):
        assert span("anything") is _NULL_CONTEXT
        assert span("something_else") is _NULL_CONTEXT

    def test_untraced_rewrite_has_no_trace(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(query)
        assert result.trace is None

    def test_tracing_scope_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with span("before"):
                pass
            with tracing(inner), span("nested"):
                pass
            with tracing(None), span("after"):  # None keeps the active one
                pass
        assert span("outside") is _NULL_CONTEXT
        assert list(outer.root.children) == ["before", "after"]
        assert list(inner.root.children) == ["nested"]

    def test_tracer_and_registry_share_one_scope(self, example_4_1):
        from repro.obs.metrics import MetricsRegistry, collecting

        catalog, query, view = example_4_1
        tracer, registry = Tracer(), MetricsRegistry()
        with collecting(registry, tracer) as bound:
            RewritePlanner([view], catalog).all_rewritings(query)
        assert bound is registry
        assert "signature_probe" in tracer.root.children
        assert tracer.counters["searches"] == 1
        assert registry.snapshot().counter_value(
            "repro_planner_searches_total"
        ) == 1


class TestSpanTree:
    def test_engine_trace_mirrors_pipeline_stages(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(query, trace=True)
        trace = result.trace
        assert isinstance(trace, RewriteTrace)
        assert trace.root.name == "rewrite"
        assert list(trace.root.children) == [
            "parse", "normalize", "search", "rank",
        ]
        search = trace.root.children["search"]
        for stage in ("signature_probe", "mapping_enumeration", "checks"):
            assert stage in search.children, sorted(search.children)
            assert search.children[stage].count >= 1
        stage_seconds = trace.stage_seconds()
        assert stage_seconds.keys() >= {"parse", "search", "checks"}
        assert all(seconds >= 0.0 for seconds in stage_seconds.values())

    def test_trace_carries_search_counters(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(query, trace=True)
        counters = result.trace.counters
        assert counters.get("nodes_expanded", 0) >= 1
        assert counters.get("candidates_generated", 0) >= 1

    def test_maximality_stage_is_spanned(self, example_4_1):
        catalog, query, view = example_4_1
        planner = RewritePlanner([view], catalog)
        with tracing(Tracer()) as tracer:
            planner.all_rewritings(query, max_steps=1, include_partial=False)
        assert "maximality" in tracer.finish().children

    def test_spans_merge_by_name_not_by_call(self, example_4_1):
        """Re-running the search must grow counts, not the tree."""
        catalog, query, view = example_4_1
        planner = RewritePlanner([view], catalog)
        with tracing(Tracer()) as tracer:
            planner.all_rewritings(query, max_steps=3)
            first_shape = tracer.root.total_spans()
            first_probes = tracer.root.children["signature_probe"].count
            planner.all_rewritings(query, max_steps=3)
            assert tracer.root.total_spans() == first_shape
            assert (
                tracer.root.children["signature_probe"].count > first_probes
            )

    def test_format_renders_the_tree(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(
            query, budget=SearchBudget(max_candidates=500), trace=True
        )
        text = result.trace.format()
        assert "rewrite" in text and "ms" in text
        assert "counters:" in text
        assert "budget: exhausted=False" in text


class TestBudgetedSearch:
    def test_expired_deadline_degrades_not_raises(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(
            query, budget=SearchBudget(deadline=0.0)
        )
        assert result.exhausted is True
        assert "deadline" in result.budget["tripped"]
        assert result.ranked == []
        assert result.best_or_original() == result.query

    def test_zero_budget_is_empty_but_sound(self, example_4_1):
        catalog, query, view = example_4_1
        for use_planner in (True, False):
            meter = SearchBudget(max_mappings=0).start()
            found = all_rewritings(
                query, [view], catalog, use_planner=use_planner, budget=meter
            )
            assert found == []
            assert meter.exhausted

    def test_candidate_cap_returns_a_partial_prefix(self, two_view_catalog):
        catalog, query = two_view_catalog
        views = list(catalog.views.values())
        full = all_rewritings(query, views, catalog)
        assert len(full) >= 2  # otherwise the cap below cuts nothing

        meter = SearchBudget(max_candidates=1).start()
        partial = all_rewritings(
            query,
            views,
            catalog,
            planner=RewritePlanner(views, catalog),
            budget=meter,
        )
        assert len(partial) == 1
        assert meter.exhausted and meter.tripped == ("max_candidates",)
        assert partial[0].sql() in {r.sql() for r in full}

    def test_trace_reports_exhaustion(self, example_4_1):
        catalog, query, _view = example_4_1
        result = RewriteEngine(catalog).rewrite(
            query, budget=SearchBudget(deadline=0.0), trace=True
        )
        assert result.trace.exhausted is True
        assert "exhausted=True" in result.trace.format()

    def test_engine_default_budget_applies(self, example_4_1):
        catalog, query, _view = example_4_1
        engine = RewriteEngine(catalog, budget=SearchBudget(deadline=0.0))
        assert engine.rewrite(query).exhausted is True
        # A per-call budget overrides the engine default.
        assert engine.rewrite(query, budget=SearchBudget()).exhausted is False


class TestQueryCacheBudget:
    def _warm_cache(self, rs_catalog):
        cache = QueryCache(rs_catalog)
        cache.remember(
            "SELECT A, D FROM R1, R2 WHERE B = C", [(1, 7), (2, 9)]
        )
        return cache

    def test_unbudgeted_lookup_hits(self, rs_catalog):
        cache = self._warm_cache(rs_catalog)
        answer = cache.try_answer(
            "SELECT A, D FROM R1, R2 WHERE B = C AND D >= 8"
        )
        assert answer is not None
        assert sorted(answer.rows) == [(2, 9)]
        assert cache.stats.hits == 1

    def test_spent_budget_degrades_to_a_miss(self, rs_catalog):
        cache = self._warm_cache(rs_catalog)
        answer = cache.try_answer(
            "SELECT A, D FROM R1, R2 WHERE B = C AND D >= 8",
            budget=SearchBudget(deadline=0.0),
        )
        assert answer is None
        assert cache.stats.misses == 1
        assert cache.stats.budget_exhausted == 1

    def test_cache_default_budget_applies(self, rs_catalog):
        cache = QueryCache(rs_catalog, budget=SearchBudget(deadline=0.0))
        cache.remember(
            "SELECT A, D FROM R1, R2 WHERE B = C", [(1, 7)]
        )
        assert (
            cache.try_answer("SELECT A, D FROM R1, R2 WHERE B = C AND D >= 5")
            is None
        )
        assert cache.stats.budget_exhausted == 1


class TestMetricsWorkerMerge:
    """The merge discipline the batch service builds on: worker
    registries are born empty, snapshots travel by pickling, and each
    folds into the parent exactly once (``docs/observability.md``)."""

    def _one_search(self, example_4_1, registry):
        from repro.obs.metrics import collecting

        catalog, query, _view = example_4_1
        with collecting(registry):
            RewriteEngine(catalog).rewrite(query)

    def test_chunk_scoped_registries_fold_once(self, example_4_1):
        from repro.obs.metrics import MetricsRegistry

        parent = MetricsRegistry()
        for _ in range(3):  # one born-empty registry per "chunk"
            chunk = MetricsRegistry()
            self._one_search(example_4_1, chunk)
            parent.merge(chunk.snapshot())
        assert (
            parent.snapshot().counter_value("repro_planner_searches_total")
            == 3
        )

    def test_snapshot_pickles_across_process_boundary(self, example_4_1):
        import pickle

        from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

        worker = MetricsRegistry()
        self._one_search(example_4_1, worker)
        wire = pickle.dumps(worker.snapshot().as_dict())
        parent = MetricsRegistry()
        parent.merge(MetricsSnapshot.from_dict(pickle.loads(wire)))
        assert (
            parent.snapshot().counter_value("repro_planner_searches_total")
            == 1
        )

    def test_double_merge_double_counts(self, example_4_1):
        # The contract is *caller-owned*: merging the same snapshot
        # twice does double count — which is why runners merge each
        # worker snapshot exactly once.
        from repro.obs.metrics import MetricsRegistry

        worker = MetricsRegistry()
        self._one_search(example_4_1, worker)
        parent = MetricsRegistry()
        snapshot = worker.snapshot()
        parent.merge(snapshot)
        parent.merge(snapshot)
        assert (
            parent.snapshot().counter_value("repro_planner_searches_total")
            == 2
        )


class TestRewriteIterativelyBudget:
    """Regression: the budget must be honored *between* view iterations."""

    def _church_rosser_setup(self):
        catalog = Catalog(
            [
                table("R", ["A", "B"]),
                table("S", ["C", "D"]),
                table("T", ["E", "F"]),
            ]
        )
        views = []
        for name, base, cols in [
            ("VR", "R", "A, B"),
            ("VS", "S", "C, D"),
            ("VT", "T", "E, F"),
        ]:
            view = parse_view(
                f"CREATE VIEW {name} ({cols}) AS SELECT {cols} FROM {base}",
                catalog,
            )
            catalog.add_view(view)
            views.append(view)
        query = parse_query(
            "SELECT A, COUNT(C) FROM R, S, T WHERE B = C AND D = E "
            "GROUP BY A",
            catalog,
        )
        return catalog, query, views

    def test_spent_budget_skips_remaining_views(self, monkeypatch):
        catalog, query, views = self._church_rosser_setup()
        import repro.core.multiview as multiview

        attempted: list[str] = []
        real = multiview.single_view_rewritings

        def counting(block, view, *args, **kwargs):
            attempted.append(view.name)
            return real(block, view, *args, **kwargs)

        monkeypatch.setattr(multiview, "single_view_rewritings", counting)

        # One mapping fits the budget: VR consumes it, VS trips the limit,
        # and — the regression — VT must never be attempted at all.
        meter = SearchBudget(max_mappings=1).start()
        result = rewrite_iteratively(query, views, catalog, budget=meter)
        assert attempted == ["VR", "VS"]
        assert meter.exhausted and meter.tripped == ("max_mappings",)
        # The partial composition is still a complete, sound rewriting.
        assert result is not None
        assert tuple(result.view_names) == ("VR",)

    def test_unbudgeted_run_attempts_every_view(self, monkeypatch):
        catalog, query, views = self._church_rosser_setup()
        import repro.core.multiview as multiview

        attempted: list[str] = []
        real = multiview.single_view_rewritings

        def counting(block, view, *args, **kwargs):
            attempted.append(view.name)
            return real(block, view, *args, **kwargs)

        monkeypatch.setattr(multiview, "single_view_rewritings", counting)
        result = rewrite_iteratively(query, views, catalog)
        assert attempted == ["VR", "VS", "VT"]
        assert result is not None and len(result.view_names) == 3

    def test_self_join_star_query_respects_budget(self):
        """A crafted self-join star: mapping enumeration is the expensive
        part, and the budget must stop it mid-query, not post-hoc."""
        catalog = Catalog([table("R", ["A", "B"])])
        view = parse_view(
            "CREATE VIEW V (X, Y) AS SELECT A, B FROM R", catalog
        )
        catalog.add_view(view)
        query = parse_query(
            "SELECT R.A, R2.A, R3.A FROM R, R AS R2, R AS R3 "
            "WHERE R.B = R2.B AND R2.B = R3.B",
            catalog,
        )
        meter = SearchBudget(max_mappings=1).start()
        found = all_rewritings(
            query,
            [view],
            catalog,
            planner=RewritePlanner([view], catalog),
            budget=meter,
        )
        assert meter.exhausted
        assert meter.mappings_enumerated == 1
        # Unbudgeted, the same search enumerates a mapping per occurrence.
        unbudgeted = SearchBudget(max_mappings=100).start()
        all_rewritings(
            query,
            [view],
            catalog,
            planner=RewritePlanner([view], catalog),
            budget=unbudgeted,
        )
        assert unbudgeted.mappings_enumerated > 1
        assert {r.sql() for r in found} <= {
            r.sql()
            for r in all_rewritings(query, [view], catalog)
        }
