"""The usability explainer: reasons must name the actual obstruction.

The explainer has no condition logic of its own — it runs the rewriter's
checks with a report sink — so besides the wording these tests pin that
the sink path and the planner's sink-less path reach the same verdict.
"""

import pytest

from repro import (
    Catalog,
    enumerate_mappings,
    parse_query,
    parse_view,
    table,
    try_rewrite_aggregation,
    try_rewrite_conjunctive,
)
from repro.core.common import ConditionReport
from repro.core.explain import explain_usability
from repro.core.multiview import single_view_rewritings
from repro.fuzz.generate import fuzz_scenario


def check_agreement(query, view, catalog):
    """The explainer's verdict must agree with the rewriter's: with the
    catalog against the set-semantics search ``RewriteEngine`` runs by
    default, and without one against the multiset-only search. Returns
    the catalog-less diagnosis."""
    keyed = explain_usability(query, view, catalog)
    found = single_view_rewritings(query, view, catalog, use_set_semantics=True)
    assert keyed.usable == bool(found), keyed.summary()
    bare = explain_usability(query, view)
    found = single_view_rewritings(query, view, catalog, use_set_semantics=False)
    assert bare.usable == bool(found), bare.summary()
    for diagnosis in (keyed, bare):
        for m in diagnosis.mappings:
            # No silent refusal: a mapping is usable exactly when every
            # line it reported passed, and it always reports something.
            assert m.reports, diagnosis.summary()
            assert m.usable == all(r.ok for r in m.reports), diagnosis.summary()
    return bare


def failed_conditions(diagnosis):
    return {
        r.condition for m in diagnosis.mappings for r in m.reports if not r.ok
    }


class TestConjunctiveDiagnoses:
    def test_c2_projection_failure_names_column(self, rs_catalog):
        query = parse_query("SELECT A, B FROM R1", rs_catalog)
        view = parse_view("CREATE VIEW V (A) AS SELECT A FROM R1", rs_catalog)
        diagnosis = check_agreement(query, view, rs_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C2"
        assert "R1.B" in failure.detail

    def test_c3_selectivity_failure(self, rs_catalog):
        query = parse_query("SELECT A FROM R1", rs_catalog)
        view = parse_view(
            "CREATE VIEW V (A) AS SELECT A FROM R1 WHERE A = B", rs_catalog
        )
        diagnosis = check_agreement(query, view, rs_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C3"
        assert "more selective" in failure.detail

    def test_c3_residual_failure(self, rs_catalog):
        query = parse_query("SELECT A FROM R1 WHERE B = 3", rs_catalog)
        view = parse_view("CREATE VIEW V (A) AS SELECT A FROM R1", rs_catalog)
        diagnosis = check_agreement(query, view, rs_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C3"
        assert "projects out" in failure.detail

    def test_c4_failure(self, rs_catalog):
        query = parse_query(
            "SELECT A, SUM(B) FROM R1 GROUP BY A", rs_catalog
        )
        view = parse_view("CREATE VIEW V (A) AS SELECT A FROM R1", rs_catalog)
        diagnosis = check_agreement(query, view, rs_catalog)
        assert "C4" in failed_conditions(diagnosis)

    def test_c1_failure_reported(self, rs_catalog):
        query = parse_query("SELECT A FROM R1", rs_catalog)
        view = parse_view("CREATE VIEW V (C) AS SELECT C FROM R2", rs_catalog)
        diagnosis = check_agreement(query, view, rs_catalog)
        assert not diagnosis.mappings
        assert "C1" in diagnosis.summary()


    def test_unsatisfiable_query_is_not_blamed_on_c3(self, rs_catalog):
        query = parse_query(
            "SELECT A FROM R1 WHERE B = 1 AND B = 2", rs_catalog
        )
        view = parse_view("CREATE VIEW V (A) AS SELECT A FROM R1", rs_catalog)
        diagnosis = check_agreement(query, view, rs_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "Conds(Q)"
        assert "unsatisfiable" in failure.detail
        assert "C3" not in diagnosis.summary()

    def test_compound_aggregate_argument(self, rs_catalog):
        query = parse_query("SELECT SUM(A * B) FROM R1", rs_catalog)
        view = parse_view(
            "CREATE VIEW V (A, B) AS SELECT A, B FROM R1", rs_catalog
        )
        diagnosis = check_agreement(query, view, rs_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C4"
        assert "compound argument" in failure.detail

    def test_distinct_view_is_out_of_scope(self, rs_catalog):
        query = parse_query("SELECT A FROM R1", rs_catalog)
        view = parse_view(
            "CREATE VIEW V (A) AS SELECT DISTINCT A FROM R1", rs_catalog
        )
        diagnosis = check_agreement(query, view, rs_catalog)
        assert "scope" in diagnosis.scope_failure
        assert "DISTINCT" in diagnosis.scope_failure

    def test_c1_line_for_a_many_to_one_mapping(self, keyed_catalog):
        query = parse_query("SELECT A FROM R1 WHERE B = C", keyed_catalog)
        view = parse_view(
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C",
            keyed_catalog,
        )
        (mapping,) = enumerate_mappings(view.block, query, many_to_one=True)
        reports = []
        assert try_rewrite_conjunctive(query, view, mapping, reports) is None
        assert [(r.condition, r.ok) for r in reports] == [("C1", False)]
        assert "1-1" in reports[0].detail


class TestAggregationDiagnoses:
    def test_example_4_4(self, wide_catalog):
        query = parse_query(
            "SELECT A, E, SUM(B) FROM R1, R2 WHERE B = F GROUP BY A, E",
            wide_catalog,
        )
        view = parse_view(
            "CREATE VIEW V (A, E, F, S) AS "
            "SELECT A, E, F, SUM(B) FROM R1, R2 GROUP BY A, E, F",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C3'"

    def test_missing_count_output(self, wide_catalog):
        query = parse_query(
            "SELECT A, SUM(E) FROM R1, R2 GROUP BY A", wide_catalog
        )
        view = parse_view(
            "CREATE VIEW V (A, B, S) AS "
            "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C4'"
        assert "COUNT" in failure.detail

    def test_coarse_view_groups(self, wide_catalog):
        query = parse_query(
            "SELECT A, B, SUM(D) FROM R1 GROUP BY A, B", wide_catalog
        )
        view = parse_view(
            "CREATE VIEW V (A, S, N) AS "
            "SELECT A, SUM(D), COUNT(D) FROM R1 GROUP BY A",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        failure = diagnosis.mappings[0].first_failure()
        assert failure.condition == "C2'"
        assert "R1.B" in failure.detail

    def test_view_having_blocked(self, wide_catalog):
        query = parse_query(
            "SELECT A, SUM(C) FROM R1 GROUP BY A HAVING SUM(C) > 2",
            wide_catalog,
        )
        view = parse_view(
            "CREATE VIEW V (A, S) AS "
            "SELECT A, SUM(C) FROM R1 GROUP BY A HAVING SUM(C) > 5",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        assert "4.3" in failed_conditions(diagnosis)

    def test_section_4_5_scope(self, wide_catalog):
        query = parse_query("SELECT A, B FROM R1", wide_catalog)
        view = parse_view(
            "CREATE VIEW V (A, B, N) AS "
            "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        assert not diagnosis.usable
        assert "4.5" in diagnosis.scope_failure

    def test_scalar_view_names_the_one_row_rule(self, wide_catalog):
        # A GROUP-BY-less view emits one row on empty input; the grouped
        # query it would feed emits none (the PR 5 soundness fix).
        query = parse_query(
            "SELECT A, SUM(C) FROM R1 GROUP BY A", wide_catalog
        )
        view = parse_view(
            "CREATE VIEW V (S, N) AS SELECT SUM(C), COUNT(C) FROM R1",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        assert not diagnosis.usable
        lines = [
            r for r in diagnosis.mappings[0].reports
            if r.condition == "scalar view"
        ]
        assert len(lines) == 1 and not lines[0].ok
        assert "one row even on empty input" in lines[0].detail

    def test_scalar_view_over_whole_scalar_query_passes(self, wide_catalog):
        query = parse_query("SELECT SUM(C) FROM R1", wide_catalog)
        view = parse_view(
            "CREATE VIEW V (S) AS SELECT SUM(C) FROM R1", wide_catalog
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        assert diagnosis.usable
        assert "[PASS] scalar view" in diagnosis.summary()

    def test_strict_count_reading_is_named(self, wide_catalog):
        # Example 1.1's shape: SUM from a SUM output, no COUNT in the view.
        query = parse_query(
            "SELECT A, SUM(C) FROM R1 GROUP BY A", wide_catalog
        )
        view = parse_view(
            "CREATE VIEW V (A, B, S) AS "
            "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
            wide_catalog,
        )
        (mapping,) = enumerate_mappings(view.block, query)
        assert try_rewrite_aggregation(query, view, mapping) is not None
        reports = []
        found = try_rewrite_aggregation(
            query, view, mapping, conditions="strict", reports=reports
        )
        assert found is None
        (failure,) = [r for r in reports if not r.ok]
        assert failure.condition == "C4'"
        assert "strict" in failure.detail


class TestPositiveDiagnoses:
    def test_usable_view_all_pass(self, wide_catalog):
        query = parse_query(
            "SELECT A, SUM(E) FROM R1, R2 GROUP BY A", wide_catalog
        )
        view = parse_view(
            "CREATE VIEW V (A, B, S, N) AS "
            "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
            wide_catalog,
        )
        diagnosis = check_agreement(query, view, wide_catalog)
        assert diagnosis.usable
        assert "USABLE" in diagnosis.summary()


class TestAgreementSweep:
    @pytest.mark.parametrize("seed", range(60))
    def test_explainer_agrees_with_rewriter(self, seed):
        """Property: the explainer's verdict always matches whether the
        rewriter actually produces a rewriting."""
        import random

        from repro.workloads.random_queries import (
            random_catalog,
            related_pair,
        )

        rng = random.Random(90_000 + seed)
        catalog = random_catalog(rng)
        query, view = related_pair(catalog, rng)
        catalog.add_view(view)
        check_agreement(query, view, catalog)

    @pytest.mark.parametrize("start", range(0, 2000, 250))
    def test_every_fuzz_view_agrees(self, start):
        """Every (query, view) pair of 2000 fuzz scenarios, which rotate
        through all profiles (scalar_agg, distinct, empty_groups,
        completeness, ...)."""
        for seed in range(start, start + 250):
            scenario = fuzz_scenario(seed)
            for view in scenario.views:
                check_agreement(scenario.query, view, scenario.catalog)

    @pytest.mark.parametrize(
        "seed, view_name",
        [(1254, "V2"), (1758, "V2"), (4372, "V1"), (5002, "V1")],
    )
    def test_scalar_view_regressions(self, seed, view_name):
        """GROUP-BY-less views the rewriter refuses; the pre-sink
        explainer, which re-derived the conditions, called them USABLE."""
        scenario = fuzz_scenario(seed)
        view = scenario.catalog.view(view_name)
        diagnosis = check_agreement(scenario.query, view, scenario.catalog)
        assert not diagnosis.usable
        assert "scalar view" in failed_conditions(diagnosis)


class TestReportSink:
    def test_detail_is_rendered_on_first_read_only(self):
        calls = []
        report = ConditionReport(
            "C2", False, lambda: calls.append(1) or "the reason"
        )
        assert not report.ok and not calls
        assert str(report) == "[FAIL] C2: the reason"
        assert report.detail == "the reason" and calls == [1]


class TestSetSemanticsHint:
    def test_many_to_one_hint(self, keyed_catalog):
        # Example 5.1's shape: the view self-joins R1, the query has one
        # occurrence, so no 1-1 mapping exists — but many-to-1 does.
        query = parse_query("SELECT A FROM R1 WHERE B = C", keyed_catalog)
        view = parse_view(
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C",
            keyed_catalog,
        )
        diagnosis = explain_usability(query, view)
        assert diagnosis.many_to_one_possible
        assert "Section 5.2" in diagnosis.summary()

    def test_example_5_1_is_usable_with_the_keyed_catalog(self, keyed_catalog):
        query = parse_query("SELECT A FROM R1 WHERE B = C", keyed_catalog)
        view = parse_view(
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C",
            keyed_catalog,
        )
        keyed_catalog.add_view(view)
        check_agreement(query, view, keyed_catalog)
        diagnosis = explain_usability(query, view, keyed_catalog)
        assert diagnosis.usable
        summary = diagnosis.summary()
        for line in ("[PASS] 5.2 keys", "[PASS] C2", "[PASS] C3"):
            assert line in summary

    def test_missing_key_fails_the_set_guarantee(self):
        catalog = Catalog([table("R1", ["A", "B", "C"])])  # no key
        query = parse_query("SELECT A FROM R1 WHERE B = C", catalog)
        view = parse_view(
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C",
            catalog,
        )
        diagnosis = explain_usability(query, view, catalog)
        assert not diagnosis.usable
        assert failed_conditions(diagnosis) == {"5.2 sets"}

    def test_key_coverage_failure_names_the_table(self, keyed_catalog):
        # A set by DISTINCT, but only one side of the collapsed pair
        # exposes the key, so nothing forces x and y onto one tuple.
        query = parse_query("SELECT A FROM R1 WHERE B = C", keyed_catalog)
        view = parse_view(
            "CREATE VIEW V (A2, C3) AS "
            "SELECT DISTINCT x.A, y.C FROM R1 x, R1 y WHERE x.B = y.C",
            keyed_catalog,
        )
        check_agreement(query, view, keyed_catalog)
        diagnosis = explain_usability(query, view, keyed_catalog)
        assert "5.2 keys" in failed_conditions(diagnosis)
        failure = diagnosis.mappings[0].first_failure()
        assert "R1" in failure.detail

    def test_aggregation_query_gets_the_5_2_scope_line(self, keyed_catalog):
        query = parse_query(
            "SELECT A, SUM(B) FROM R1 GROUP BY A", keyed_catalog
        )
        view = parse_view(
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C",
            keyed_catalog,
        )
        diagnosis = check_agreement(query, view, keyed_catalog)
        assert not diagnosis.mappings  # no 1-1 mapping
        keyed = explain_usability(query, view, keyed_catalog)
        assert failed_conditions(keyed) == {"5.2"}

    def test_no_hint_when_tables_absent(self, rs_catalog):
        query = parse_query("SELECT A FROM R1", rs_catalog)
        view = parse_view("CREATE VIEW V (C) AS SELECT C FROM R2", rs_catalog)
        diagnosis = explain_usability(query, view)
        assert not diagnosis.many_to_one_possible
        assert "Section 5.2" not in diagnosis.summary()
