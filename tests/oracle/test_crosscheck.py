"""The cross-checker: clean scenarios pass, seeded bugs are caught.

The decisive property of a differential oracle is *sensitivity*: it must
flag a wrong backend and a wrong rewriting, not just agree with itself.
Both directions are exercised here — an injected evaluator bug (engine
vs SQLite) and a deliberately wrong rewriting (rewriting vs query on
both backends).
"""

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.core.result import Rewriting
from repro.fuzz import inject_bug
from repro.obs import SearchBudget
from repro.oracle import CrossChecker, check_scenario
from repro.workloads.random_queries import Scenario, random_scenario


@pytest.fixture
def scenario():
    catalog = Catalog([table("R", ["a", "b"])])
    view = parse_view(
        "CREATE VIEW V (a, s, n) AS "
        "SELECT R.a, SUM(R.b), COUNT(R.b) FROM R GROUP BY R.a",
        catalog,
    )
    catalog.add_view(view)
    query = parse_query(
        "SELECT R.a, SUM(R.b) AS s FROM R GROUP BY R.a", catalog
    )
    instance = {"R": [(1, 10), (1, 20), (2, 30)]}
    return Scenario(
        seed=0, catalog=catalog, query=query, views=[view], instance=instance
    )


def test_clean_scenario_passes(scenario):
    report = check_scenario(scenario)
    assert report.ok, report.describe()
    assert report.rewritings >= 1, "the view is usable; the search must find it"
    # view + query + three comparisons per rewriting.
    assert report.checks >= 2 + 3 * report.rewritings
    assert "ok:" in report.describe()


def test_random_scenarios_pass():
    for seed in range(25):
        report = check_scenario(random_scenario(seed), max_rewritings=4)
        assert report.ok, f"seed={seed}\n" + report.describe()


def test_injected_engine_bug_is_caught(scenario):
    with inject_bug("sum-empty-zero"):
        # Make SUM aggregate an empty-ish group: all-NULL b for a = 3.
        scenario.instance["R"].append((3, None))
        report = check_scenario(scenario)
    assert not report.ok
    assert any(
        m.left_label == "engine" and m.right_label == "sqlite"
        for m in report.mismatches
    ), report.describe()


def test_wrong_rewriting_is_caught_on_both_backends(scenario):
    wrong = Rewriting(
        query=parse_query(
            "SELECT R.a, COUNT(R.b) AS s FROM R GROUP BY R.a",
            scenario.catalog,
        ),
        view_names=("V",),
        strategy="test-wrong",
    )
    report = check_scenario(scenario, rewritings=[wrong])
    contexts = [m.context for m in report.mismatches]
    # Engine and SQLite *agree* with each other on the wrong query, so
    # only the rewriting-vs-query comparisons fire — once per backend.
    assert any("vs query" in c for c in contexts), report.describe()
    labels = {m.left_label for m in report.mismatches}
    assert "sqlite rewriting" in labels and "engine rewriting" in labels


def test_budgeted_search_path(scenario):
    checker = CrossChecker(max_rewritings=2)
    report = checker.check(scenario, budget=SearchBudget(max_candidates=1))
    assert report.ok, report.describe()
    assert report.rewritings <= 2


def test_mismatch_describe_mentions_sql(scenario):
    wrong = Rewriting(
        query=parse_query("SELECT R.a FROM R", scenario.catalog),
        view_names=("V",),
        strategy="test-wrong",
    )
    report = check_scenario(scenario, rewritings=[wrong])
    text = report.describe()
    assert "MISMATCH" in text and "SELECT" in text


def test_cohen_nutt_strategy_counts_the_dominance_check():
    """Under ``cohen_nutt`` the checker re-asserts C1-C4 dominance: one
    comparison more than the same search under ``c1c4``, even when
    neither strategy finds a rewriting."""
    catalog = Catalog([table("R", ["a", "b"])])
    query = parse_query(
        "SELECT R.a, SUM(R.b) AS s FROM R GROUP BY R.a", catalog
    )
    scenario = Scenario(
        seed=0, catalog=catalog, query=query, views=[],
        instance={"R": [(1, 10), (2, 30)]},
    )
    base = CrossChecker(strategy="c1c4").check(scenario)
    union = CrossChecker(strategy="cohen_nutt").check(scenario)
    assert base.ok and union.ok, union.describe()
    assert base.rewritings == union.rewritings == 0
    assert union.strategy_counts == {"c1c4": 0, "cohen_nutt": 0}
    assert union.checks == base.checks + 1
