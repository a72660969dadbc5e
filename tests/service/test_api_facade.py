"""The `repro.api` facade: rewrite / rewrite_batch / explain contracts."""

from __future__ import annotations

import math

import pytest

from repro import api
from repro.blocks.normalize import parse_query, parse_view
from repro.errors import ReproError
from repro.obs.budget import SearchBudget
from repro.service.requests import API_SCHEMA, RewriteRequest
from repro.workloads.random_queries import random_scenario


@pytest.fixture
def telephony(telephony_catalog):
    catalog = telephony_catalog
    view = parse_view(
        "CREATE VIEW Yearly (Plan_Id, Year, Total) AS "
        "SELECT Plan_Id, Year, SUM(Charge) FROM Calls "
        "GROUP BY Plan_Id, Year",
        catalog,
    )
    catalog.add_view(view)
    query = (
        "SELECT Plan_Id, SUM(Charge) FROM Calls "
        "WHERE Year = 1995 GROUP BY Plan_Id"
    )
    return catalog, query


class TestRewrite:
    def test_textual_query_is_parsed_and_ranked(self, telephony):
        catalog, query = telephony
        response = api.rewrite(query, catalog)
        assert response.ok
        assert response.rewritings
        assert response.ranked
        assert response.original_cost is not None
        assert "Yearly" in response.best_sql()

    def test_best_is_cheapest(self, telephony):
        catalog, query = telephony
        response = api.rewrite(query, catalog)
        costs = [r.cost for r in response.ranked]
        assert costs == sorted(costs)
        assert response.best() is response.ranked[0].rewriting

    def test_parse_error_raises_inline(self, telephony):
        catalog, _ = telephony
        with pytest.raises(ReproError):
            api.rewrite("SELECT X FROM Nowhere", catalog)

    def test_textual_query_without_catalog_raises(self):
        with pytest.raises(ReproError):
            api.rewrite("SELECT A FROM R1 GROUP BY A")

    def test_bare_queryblock_discovery_order(self):
        scenario = random_scenario(3)
        response = api.rewrite(
            scenario.query, views=tuple(scenario.views),
            use_set_semantics=False,
        )
        # no catalog: no ranking, but discovery order preserved
        assert response.ranked == ()
        from repro.core.multiview import all_rewritings

        direct = all_rewritings(
            scenario.query, list(scenario.views), catalog=None,
            use_set_semantics=False, max_steps=3,
        )
        assert list(response.rewritings) == direct

    def test_budget_reported(self, telephony):
        catalog, query = telephony
        budget = SearchBudget(max_mappings=1, max_candidates=1)
        response = api.rewrite(query, catalog, budget=budget)
        assert response.budget is not None
        assert response.budget["budget"]["max_mappings"] == 1

    def test_live_meter_spans_calls(self, telephony):
        catalog, query = telephony
        meter = SearchBudget(max_mappings=10_000).start()
        api.rewrite(query, catalog, budget=meter)
        first = meter.mappings_enumerated
        assert first > 0
        api.rewrite(query, catalog, budget=meter)
        assert meter.mappings_enumerated > first

    def test_trace_captured(self, telephony):
        catalog, query = telephony
        response = api.rewrite(query, catalog, trace=True)
        assert response.trace is not None
        assert response.trace.root.seconds >= 0

    def test_trace_captured_without_a_catalog(self):
        """One body: the catalog-less path traces like any other."""
        scenario = random_scenario(3)
        response = api.rewrite(
            scenario.query, views=tuple(scenario.views), trace=True
        )
        assert response.trace is not None
        assert "search" in response.trace.root.children
        assert response.ranked == () and response.original_cost is None

    def test_json_projection_schema(self, telephony):
        catalog, query = telephony
        payload = api.rewrite(query, catalog).to_json_dict()
        assert payload["schema"] == API_SCHEMA
        assert payload["kind"] == "rewrite"
        assert payload["rewritings"][0]["cost"] is not None

    def test_json_cost_is_null_without_catalog(self):
        scenario = random_scenario(3)
        response = api.rewrite(
            scenario.query, views=tuple(scenario.views),
            use_set_semantics=False,
        )
        for entry in response.to_json_dict()["rewritings"]:
            assert entry["cost"] is None


class TestRewriteBatch:
    def test_n_in_n_out_in_order(self, telephony):
        catalog, query = telephony
        requests = [
            RewriteRequest(query=query, catalog=catalog, request_id=str(i))
            for i in range(5)
        ]
        result = api.rewrite_batch(requests, mode="serial")
        assert len(result) == 5
        assert [r.request_id for r in result] == [str(i) for i in range(5)]

    def test_matches_single_rewrite(self, telephony):
        catalog, query = telephony
        single = api.rewrite(query, catalog)
        batch = api.rewrite_batch(
            [RewriteRequest(query=query, catalog=catalog)], mode="serial"
        )
        assert batch[0].rewritings == single.rewritings
        assert batch[0].ranked == single.ranked

    def test_errors_are_captured_not_raised(self, telephony):
        catalog, query = telephony
        requests = [
            RewriteRequest(query=query, catalog=catalog),
            RewriteRequest(query="SELECT X FROM Nowhere", catalog=catalog),
        ]
        result = api.rewrite_batch(requests, mode="serial")
        assert result[0].ok
        assert not result[1].ok
        assert "Nowhere" in result[1].error
        assert result.error_count == 1

    def test_report_counters(self, telephony):
        catalog, query = telephony
        result = api.rewrite_batch(
            [RewriteRequest(query=query, catalog=catalog)] * 4,
            mode="serial",
        )
        report = result.report
        assert report["requests"] == 4
        assert report["groups"] == 1
        assert report["mode"] == "serial"
        assert report["requests_per_second"] is None or (
            report["requests_per_second"] > 0
        )

    def test_json_projection(self, telephony):
        catalog, query = telephony
        result = api.rewrite_batch(
            [RewriteRequest(query=query, catalog=catalog)], mode="serial"
        )
        payload = result.to_json_dict()
        assert payload["schema"] == API_SCHEMA
        assert payload["kind"] == "batch"
        assert len(payload["responses"]) == 1


class TestExplain:
    def test_diagnoses_every_view(self, telephony):
        catalog, query = telephony
        response = api.explain(query, catalog)
        assert len(response.diagnoses) == len(catalog.views)
        assert "Yearly" in response.usable_views
        assert "USABLE" in response.summary()

    def test_single_view_restriction(self, telephony):
        catalog, query = telephony
        response = api.explain(query, catalog, view="Yearly")
        assert len(response.diagnoses) == 1
        assert response.diagnoses[0].view.name == "Yearly"

    def test_json_projection(self, telephony):
        catalog, query = telephony
        payload = api.explain(query, catalog).to_json_dict()
        assert payload["schema"] == API_SCHEMA
        assert payload["kind"] == "explain"
        assert payload["views"][0]["name"]
        assert isinstance(payload["views"][0]["usable"], bool)


class TestRewriteIterative:
    def test_matches_core(self):
        from repro.core.multiview import rewrite_iteratively

        scenario = random_scenario(11)
        facade = api.rewrite_iterative(
            scenario.query, list(scenario.views), catalog=scenario.catalog
        )
        core = rewrite_iteratively(
            scenario.query, list(scenario.views), catalog=scenario.catalog
        )
        assert facade == core
