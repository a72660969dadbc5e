"""The wire protocol: parsing, strategies, serving fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    ProtocolError,
    parse_line,
    request_from_wire,
    resolve_strategy,
    serving_group_key,
    strategy_names,
)
from repro.serving.protocol import (
    budget_from_wire,
    serving_keys,
    update_from_wire,
)
from repro.workloads.random_queries import random_scenario


class TestParseLine:
    def test_bare_string_is_a_rewrite(self):
        obj = parse_line(json.dumps("SELECT 1 FROM T"))
        assert obj["op"] == "rewrite"
        assert obj["sql"] == "SELECT 1 FROM T"

    def test_op_defaults_to_rewrite_with_sql(self):
        assert parse_line('{"sql": "SELECT 1"}')["op"] == "rewrite"
        assert parse_line('{"query": "SELECT 1"}')["op"] == "rewrite"

    def test_explicit_ops_pass_through(self):
        for op in ("ping", "metrics", "shutdown", "update"):
            assert parse_line(json.dumps({"op": op}))["op"] == op

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_line("{nope", line_no=3)

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_line("[1, 2]")

    def test_unknown_op_raises(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_line('{"op": "frobnicate"}')


class TestBudgetFromWire:
    def test_absent_is_none(self):
        assert budget_from_wire({}) is None

    def test_deadline_ms_converts_to_seconds(self):
        budget = budget_from_wire({"deadline_ms": 50, "max_mappings": 7})
        assert budget.deadline == 0.05
        assert budget.max_mappings == 7
        assert budget.max_candidates is None


class TestRequestFromWire:
    def test_full_request(self):
        sc = random_scenario(3)
        request = request_from_wire(
            {
                "op": "rewrite",
                "sql": "SELECT 1 FROM " + sc.views[0].name,
                "id": 42,
                "max_steps": 5,
                "unfold": True,
            },
            sc.catalog,
        )
        assert request.request_id == "42"
        assert request.max_steps == 5
        assert request.unfold is True
        assert request.catalog is sc.catalog
        assert request.views is None

    def test_views_subset_resolved_by_name(self):
        sc = random_scenario(3)
        name = sc.views[0].name
        request = request_from_wire(
            {"op": "rewrite", "sql": "SELECT 1 FROM T", "views": [name]},
            sc.catalog,
        )
        assert [v.name for v in request.views] == [name]

    def test_unknown_view_refused(self):
        sc = random_scenario(3)
        with pytest.raises(ProtocolError):
            request_from_wire(
                {"op": "rewrite", "sql": "SELECT 1", "views": ["Nope"]},
                sc.catalog,
            )

    def test_missing_sql_refused(self):
        sc = random_scenario(3)
        with pytest.raises(ProtocolError, match="non-empty SELECT"):
            request_from_wire({"op": "rewrite"}, sc.catalog)


class TestStrategies:
    def test_default_registered(self):
        assert "default" in strategy_names()
        assert resolve_strategy(None) is resolve_strategy("default") is None

    def test_engine_strategies_registered(self):
        for name in ("c1c4", "cohen_nutt", "both"):
            assert name in strategy_names()
            assert resolve_strategy(name) == name

    def test_unknown_lists_known(self):
        with pytest.raises(ProtocolError, match="known: .*default"):
            resolve_strategy("no-such-strategy")

    def test_wire_strategy_rides_in_request(self):
        sc = random_scenario(3)
        request = request_from_wire(
            {"op": "rewrite", "sql": "SELECT 1", "strategy": "both"},
            sc.catalog,
        )
        assert request.strategy == "both"
        # "default" leaves the request's own strategy at the default.
        request = request_from_wire(
            {"op": "rewrite", "sql": "SELECT 1", "strategy": "default"},
            sc.catalog,
        )
        assert request.strategy == "c1c4"

    def test_resolve_is_a_validator(self):
        """No runner registry: a name resolves to the engine-level
        strategy to pin, or to None for the default."""
        from repro.strategies import STRATEGY_NAMES

        assert strategy_names() == ("both", "c1c4", "cohen_nutt", "default")
        for name in strategy_names():
            resolved = resolve_strategy(name)
            assert resolved == (None if name == "default" else name)
            assert resolved is None or resolved in STRATEGY_NAMES
        assert resolve_strategy(None) is None
        with pytest.raises(ProtocolError) as refusal:
            resolve_strategy("experimental")
        for name in strategy_names():
            assert name in str(refusal.value)

    def test_unknown_wire_strategy_refused_with_line(self):
        sc = random_scenario(3)
        with pytest.raises(ProtocolError, match="line 4: unknown strategy"):
            request_from_wire(
                {"op": "rewrite", "sql": "SELECT 1", "strategy": "nope"},
                sc.catalog,
                4,
            )


class TestNumericLimits:
    """Limits are validated, never coerced — `repro batch` and the
    daemon refuse the same line with the same message."""

    @pytest.mark.parametrize(
        "name, bad, expected",
        [
            ("max_steps", "3", "an integer"),
            ("max_steps", 2.5, "an integer"),
            ("max_steps", True, "an integer"),
            ("max_mappings", "500", "an integer"),
            ("max_candidates", [1], "an integer"),
            ("deadline_ms", "50", "a number"),
        ],
    )
    def test_bad_value_names_line_and_field(self, name, bad, expected):
        sc = random_scenario(3)
        with pytest.raises(ProtocolError) as refusal:
            request_from_wire(
                {"op": "rewrite", "sql": "SELECT 1", name: bad},
                sc.catalog,
                7,
            )
        assert str(refusal.value) == f"line 7: '{name}' must be {expected}"

    def test_numbers_pass_through(self):
        sc = random_scenario(3)
        request = request_from_wire(
            {
                "op": "rewrite",
                "sql": "SELECT 1",
                "max_steps": 2,
                "deadline_ms": 12.5,
                "max_mappings": 9,
                "max_candidates": None,
            },
            sc.catalog,
        )
        assert request.max_steps == 2
        assert request.budget.deadline == 0.0125
        assert request.budget.max_mappings == 9
        assert request.budget.max_candidates is None


class TestServingGroupKey:
    def _request(self, sc, views=None):
        from repro.service.requests import RewriteRequest

        return RewriteRequest(
            query=sc.query, catalog=sc.catalog, views=views
        )

    def test_stable_for_same_request(self):
        sc = random_scenario(3)
        assert serving_group_key(self._request(sc)) == serving_group_key(
            self._request(sc)
        )

    def test_own_view_row_count_changes_key(self):
        sc = random_scenario(3)
        before = serving_group_key(self._request(sc))
        name = sc.views[0].name
        sc.catalog.set_row_count(name, sc.catalog.row_count(name) + 10)
        assert serving_group_key(self._request(sc)) != before

    def test_other_view_row_count_keeps_subset_key(self):
        # A request pinned to a view subset keeps its fingerprint when an
        # unrelated view's statistics move — that is the whole point of
        # refining the batch-service group key.
        sc = random_scenario(3)
        assert len(sc.views) >= 2
        pinned = (sc.views[0],)
        other = sc.views[1].name
        before = serving_group_key(self._request(sc, views=pinned))
        sc.catalog.set_row_count(other, sc.catalog.row_count(other) + 10)
        assert serving_group_key(self._request(sc, views=pinned)) == before


class TestServingKeys:
    """The response memo's key is the fingerprint's definitions; its
    stamp is the fingerprint's cardinalities."""

    def _keys(self, sc):
        from repro.service.requests import RewriteRequest

        return serving_keys(RewriteRequest(query=sc.query, catalog=sc.catalog))

    def test_fingerprint_is_the_group_key(self):
        from repro.service.requests import RewriteRequest

        sc = random_scenario(3)
        request = RewriteRequest(query=sc.query, catalog=sc.catalog)
        assert serving_keys(request)[0] == serving_group_key(request)

    def test_counts_move_the_stamp_not_the_definitions(self):
        sc = random_scenario(3)
        key, definitions, counts = self._keys(sc)
        name = sc.views[0].name
        sc.catalog.set_row_count(name, sc.catalog.row_count(name) + 10)
        table = next(iter(sc.catalog.tables))
        sc.catalog.set_table_row_count(
            table, sc.catalog.row_count(table) + 10
        )
        key2, definitions2, counts2 = self._keys(sc)
        assert definitions2 == definitions
        assert key2 != key and counts2 != counts

    def test_a_key_change_moves_the_definitions(self):
        from dataclasses import replace

        sc = random_scenario(3)
        definitions = self._keys(sc)[1]
        name, schema = next(iter(sc.catalog.tables.items()))
        sc.catalog._tables[name] = replace(
            schema, keys=(frozenset(schema.columns),)
        )
        assert self._keys(sc)[1] != definitions


class TestUpdateFromWire:
    def test_rows_become_tuples(self):
        sc = random_scenario(3)
        table = next(iter(sc.catalog.tables))
        assert update_from_wire(
            {"op": "update", "table": table, "insert": [[1, 2]]}, sc.catalog
        ) == (table, [(1, 2)], [])

    @pytest.mark.parametrize("field", ["insert", "delete"])
    @pytest.mark.parametrize("bad", [None, 5, "abc", [1, 2], [[1], "ab"]])
    def test_non_row_lists_refused(self, field, bad):
        sc = random_scenario(3)
        table = next(iter(sc.catalog.tables))
        with pytest.raises(ProtocolError) as refusal:
            update_from_wire(
                {"op": "update", "table": table, field: bad}, sc.catalog, 5
            )
        assert str(refusal.value) == f"line 5: '{field}' must be a list of rows"

    def test_unknown_table_refused(self):
        sc = random_scenario(3)
        with pytest.raises(ProtocolError, match="must name a base table"):
            update_from_wire({"op": "update", "table": "Nope"}, sc.catalog)
