"""The wire protocol: parsing, strategies, serving fingerprints."""

from __future__ import annotations

import json
import pickle
import random
from dataclasses import replace

import pytest

from repro import api
from repro.blocks.to_sql import block_to_sql
from repro.catalog.schema import Catalog, table
from repro.serving import (
    ProtocolError,
    parse_line,
    request_from_wire,
    resolve_strategy,
    serving_group_key,
    strategy_names,
)
from repro.serving import PlannerCache, protocol
from repro.serving.memo import LocalMemoTier
from repro.serving.protocol import (
    budget_from_wire,
    encoded_line,
    line_template,
    serving_keys,
    update_from_wire,
)
from repro.service.requests import RewriteRequest, RewriteResponse
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

    @pytest.mark.parametrize("request_id", ["r1", "", 7, -3, 2**70])
    def test_string_and_integer_ids_pass_as_sent(self, request_id):
        obj = parse_line(json.dumps({"op": "ping", "id": request_id}))
        assert obj["id"] == request_id
        assert type(obj["id"]) is type(request_id)

    @pytest.mark.parametrize("bad", [{"a": 1}, [1], 1.5, True, False])
    def test_other_ids_refused(self, bad):
        with pytest.raises(ProtocolError) as refusal:
            parse_line(json.dumps({"op": "ping", "id": bad}), line_no=4)
        assert str(refusal.value) == (
            "line 4: 'id' must be a string or an integer"
        )


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
        for name in ("c1c4", "cohen_nutt"):
            assert name in strategy_names()
            assert resolve_strategy(name) == name

    def test_unknown_lists_known(self):
        with pytest.raises(ProtocolError, match="known: .*default"):
            resolve_strategy("no-such-strategy")

    def test_wire_strategy_rides_in_request(self):
        sc = random_scenario(3)
        request = request_from_wire(
            {"op": "rewrite", "sql": "SELECT 1", "strategy": "cohen_nutt"},
            sc.catalog,
        )
        assert request.strategy == "cohen_nutt"
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

        assert strategy_names() == ("c1c4", "cohen_nutt", "default")
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
        return serving_keys(RewriteRequest(query=sc.query, catalog=sc.catalog))

    def test_fingerprint_is_the_group_key(self):
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
        # The same tables and views, one table with a new key; built
        # through the public constructors, which move the version.
        tables = list(sc.catalog.tables.values())
        tables[0] = replace(tables[0], keys=(frozenset(tables[0].columns),))
        catalog = Catalog(tables)
        for view in sc.catalog.views.values():
            catalog.add_view(view)
        sc = replace(sc, catalog=catalog)
        assert self._keys(sc)[1] != definitions


def uncached_keys(request) -> tuple:
    """``serving_keys`` computed afresh: a copy starts with no memo."""
    return serving_keys(replace(request, catalog=request.catalog.copy()))


def mutate(rng: random.Random, catalog: Catalog, step: int, pinned) -> str:
    """One random public mutation of ``catalog``; never removes a view
    in ``pinned``. Returns the mutator's name."""
    views = list(catalog.views.values())
    removable = [v for v in views if v not in pinned]
    choice = rng.choice(
        ["add_table", "set_table_row_count", "set_row_count", "add_view"]
        + (["remove_view"] if removable else [])
    )
    if choice == "add_table":
        catalog.add_table(table(f"New{step}", ["a", "b"], key=["a"]))
    elif choice == "set_table_row_count":
        name = rng.choice(sorted(catalog.tables))
        catalog.set_table_row_count(name, rng.randrange(1, 10**6))
    elif choice == "set_row_count" and views:
        catalog.set_row_count(rng.choice(views).name, rng.randrange(1, 10**6))
    elif choice == "remove_view":
        catalog.remove_view(rng.choice(removable).name)
    elif choice == "add_view" and views:
        view = rng.choice(views)
        catalog.add_view(
            replace(view, name=f"{view.name}_{step}"),
            row_count=rng.choice([None, rng.randrange(1, 1000)]),
        )
    return choice


class TestMemoizedServingKeys:
    """``serving_keys`` is memoized per catalog version: between changes
    a view set's keys are the same tuples, and every mutator makes the
    next call see the change."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_mutations_never_serve_an_old_key(self, seed):
        sc = random_scenario(seed)
        rng = random.Random(seed)
        pinned = (sc.views[0],)
        requests = [
            RewriteRequest(query=sc.query, catalog=sc.catalog),
            RewriteRequest(query=sc.query, catalog=sc.catalog, views=pinned),
            RewriteRequest(
                query=sc.query, catalog=sc.catalog, use_set_semantics=False
            ),
        ]
        for step in range(12):
            for request in requests:
                keys = serving_keys(request)
                assert keys == uncached_keys(request)
                assert serving_keys(request) is keys
            version = sc.catalog.version
            mutate(rng, sc.catalog, step, pinned)
            assert sc.catalog.version > version

    def test_keys_computed_across_a_change_are_not_served_after_it(self):
        """The version is read before the keys are computed: a change
        that lands mid-computation leaves them under the old version."""
        sc = random_scenario(3)
        request = RewriteRequest(query=sc.query, catalog=sc.catalog)
        name = sc.views[0].name
        real = sc.catalog.row_count
        changed = []

        def row_count(relation):
            count = real(relation)
            if not changed:  # the first count is read, then it moves
                changed.append(relation)
                sc.catalog.set_row_count(name, real(name) + 1)
            return count

        sc.catalog.row_count = row_count
        try:
            serving_keys(request)
        finally:
            del sc.catalog.row_count
        assert changed == [name]
        assert serving_keys(request) == uncached_keys(request)

    def test_the_memo_stays_within_its_cap(self):
        sc = random_scenario(3)
        views = sc.views
        cap = protocol.MAX_MEMOIZED_KEYS
        for size in range(1, cap + 40):
            pinned = tuple(views[i % len(views)] for i in range(size))
            request = RewriteRequest(
                query=sc.query, catalog=sc.catalog, views=pinned
            )
            assert serving_keys(request) == uncached_keys(request)
            assert len(sc.catalog.memo()) <= cap

    def test_pickled_catalogs_carry_no_keys(self):
        sc = random_scenario(3)
        cold = pickle.dumps(sc.catalog)
        serving_keys(RewriteRequest(query=sc.query, catalog=sc.catalog))
        assert sc.catalog.memo()
        assert len(pickle.dumps(sc.catalog)) == len(cold)
        assert pickle.loads(cold).memo() == {}

    def test_a_copy_has_its_own_memo(self):
        sc = random_scenario(3)
        request = RewriteRequest(query=sc.query, catalog=sc.catalog)
        keys = serving_keys(request)
        clone = sc.catalog.copy()
        assert clone.memo() == {}
        assert clone.memo() is not sc.catalog.memo()
        assert serving_keys(replace(request, catalog=clone)) == keys
        assert serving_keys(request) is keys


def stored_cache(seed: int):
    """A cache holding scenario ``seed``'s response, and its request."""
    sc = random_scenario(seed)
    request = RewriteRequest(query=block_to_sql(sc.query), catalog=sc.catalog)
    cache = PlannerCache(LocalMemoTier())
    for _ in range(2):  # a marker, then the response
        cache.run(request)
    return cache, request


#: Wire ids a client may send: quotes, backslashes, non-ASCII, control
#: characters, and integers.
TRICKY_IDS = [
    "r1", 'q"uo"te', "back\\slash\\", "caf\u00e9 \u00fc\u4e2d\U0001f600",
    "ctl\x00\x01\x1f\n\t\r\x7f", "\u2028\u2029", "", 0, 7, -42, 2**70,
]
ELAPSED = [0.0, 1e-9, 4.2e-7, 0.000123456789, 0.0421, 0.5, 0.999999, 1.0]


class TestSplicedLines:
    """A stored response's line is encoded once; each loop hit splices
    its wire id, request id and elapsed into it."""

    def test_spliced_lines_equal_the_encoded_envelope(self):
        spliced = 0
        for seed in range(40):
            cache, request = stored_cache(seed)
            if cache.stored_response(request) is None:
                continue  # an error or exhausted answer is not stored
            spliced += 1
            for wire_id in TRICKY_IDS:
                answer = cache.stored_response(
                    replace(request, request_id=str(wire_id))
                )
                assert line_template(answer) is not None
                for elapsed in ELAPSED:
                    object.__setattr__(answer, "elapsed", elapsed)
                    expected = json.dumps(
                        api.to_envelope(
                            answer, kind="rewrite", request_id=wire_id
                        )
                    ) + "\n"
                    line = encoded_line(answer, wire_id)
                    assert line == expected.encode("utf-8")
        assert spliced >= 30

    def test_answers_share_the_stored_template_and_never_pickle_it(self):
        cache, request = stored_cache(3)
        first, second = (cache.stored_response(request) for _ in range(2))
        assert line_template(first) is line_template(second) is not None
        assert "_cached_line" not in pickle.loads(pickle.dumps(first)).__dict__

    def test_an_ambiguous_split_is_encoded(self):
        response = RewriteResponse(budget={"note": protocol._SLOT})
        assert line_template(response) is None
        expected = json.dumps(
            api.to_envelope(response, kind="rewrite", request_id=7)
        ) + "\n"
        assert encoded_line(response, 7) == expected.encode("utf-8")

    def test_a_response_without_a_template_or_an_id_is_encoded(self):
        cache, request = stored_cache(3)
        answer = cache.stored_response(request)
        fresh = replace(answer)
        for response, wire_id in ((answer, None), (fresh, "r1")):
            expected = json.dumps(
                api.to_envelope(response, kind="rewrite", request_id=wire_id)
            ) + "\n"
            assert encoded_line(response, wire_id) == expected.encode("utf-8")
        assert "_cached_line" not in fresh.__dict__


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
