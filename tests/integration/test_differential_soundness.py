"""Differential soundness harness for the full rewrite search.

Where ``test_equivalence_random`` checks single-view substitutions, this
module pins down the *search*: for seeded (query, views, database)
triples, every rewriting returned by ``all_rewritings`` — planner or
naive, unbudgeted or under a tight :class:`SearchBudget` — must be
multiset-equivalent to the original query on the scenario's concrete
instance. Evaluation goes through the engine
(:func:`repro.engine.evaluator.evaluate_block` via ``Database.execute``),
so a disagreement is an end-to-end soundness bug, not a modelling one.

The base seed is shiftable from the command line::

    PYTHONPATH=src python -m pytest tests/integration/test_differential_soundness.py --seed 5000

so CI failures reproduce locally and nightly runs can walk fresh seed
ranges without code changes. Every assertion message leads with the seed.
"""

import pytest

from repro.core.canonical import canonical_key
from repro.core.multiview import all_rewritings
from repro.core.planner import RewritePlanner
from repro.engine.database import Database
from repro.errors import OracleUnsupported
from repro.obs import SearchBudget
from repro.oracle import check_scenario
from repro.workloads.random_queries import random_scenario

#: Seeded triples per sweep (the acceptance floor is 200+).
N_SCENARIOS = 240

#: Tight budgets for the degraded-mode sweep. Both routinely trip on the
#: richer scenarios; partial results must still all be sound.
TIGHT_BUDGETS = (
    SearchBudget(max_mappings=2),
    SearchBudget(max_candidates=1),
    SearchBudget(deadline=5e-4),
)

FOUND_COUNTER = {
    "scenarios": 0,
    "rewritings": 0,
    "budget_trips": 0,
    "oracle_checks": 0,
    "oracle_rewritings": 0,
    "cohen_nutt_checks": 0,
    "cohen_nutt_extras": 0,
}


def pytest_generate_tests(metafunc):
    if "diff_seed" in metafunc.fixturenames:
        base = metafunc.config.getoption("--seed")
        metafunc.parametrize("diff_seed", range(base, base + N_SCENARIOS))


def _assert_sound(scenario, db, baseline, rewriting, context: str) -> None:
    rewritten = db.execute(rewriting.query, extra_views=rewriting.extra_views())
    assert baseline.multiset_equal(rewritten), (
        f"seed={scenario.seed} ({context})\n"
        f"query: {scenario.query}\n"
        f"views: {[v.name for v in scenario.views]}\n"
        f"rewriting: {rewriting.sql()}\n"
        f"instance: {scenario.instance}\n"
        f"original rows:  {sorted(map(str, baseline.rows))}\n"
        f"rewritten rows: {sorted(map(str, rewritten.rows))}"
    )


def test_planner_naive_parity_and_soundness(diff_seed):
    """Planner and naive searches agree, and every rewriting is sound."""
    scenario = random_scenario(diff_seed)
    db = Database(scenario.catalog, scenario.instance)
    baseline = db.execute(scenario.query)

    planned = all_rewritings(
        scenario.query, scenario.views, scenario.catalog, use_planner=True
    )
    naive = all_rewritings(
        scenario.query, scenario.views, scenario.catalog, use_planner=False
    )
    assert [canonical_key(r.query) for r in planned] == [
        canonical_key(r.query) for r in naive
    ], f"seed={diff_seed}: planner/naive result sets diverge"

    FOUND_COUNTER["scenarios"] += 1
    FOUND_COUNTER["rewritings"] += len(planned)
    for rewriting in planned:
        _assert_sound(scenario, db, baseline, rewriting, "planner, unbudgeted")


def test_budgeted_search_stays_sound(diff_seed):
    """Budget-truncated searches return a sound subset of the full set."""
    scenario = random_scenario(diff_seed)
    db = Database(scenario.catalog, scenario.instance)
    baseline = db.execute(scenario.query)
    full_keys = {
        canonical_key(r.query)
        for r in all_rewritings(
            scenario.query, scenario.views, scenario.catalog, use_planner=True
        )
    }

    for budget in TIGHT_BUDGETS:
        for use_planner in (True, False):
            # Fresh planner per run: a warm substitution memo would make
            # the search free and the budget could never trip.
            planner = (
                RewritePlanner(scenario.views, scenario.catalog)
                if use_planner
                else None
            )
            meter = budget.start()
            partial = all_rewritings(
                scenario.query,
                scenario.views,
                scenario.catalog,
                use_planner=use_planner,
                planner=planner,
                budget=meter,
            )
            context = (
                f"budget={budget.as_dict()}, planner={use_planner}, "
                f"tripped={meter.tripped}"
            )
            if meter.exhausted:
                FOUND_COUNTER["budget_trips"] += 1
            partial_keys = [canonical_key(r.query) for r in partial]
            assert set(partial_keys) <= full_keys, (
                f"seed={diff_seed} ({context}): budgeted search invented a "
                f"rewriting the full search never produced"
            )
            for rewriting in partial:
                _assert_sound(scenario, db, baseline, rewriting, context)


def test_sqlite_cross_oracle(diff_seed):
    """The same seeds through the *independent* backend: SQLite
    materializes every view, runs the query and every rewriting itself,
    and each rewriting must equal the query on SQLite alone. A bug
    shared by the engine's evaluator and the rewriter is invisible to
    the engine-only sweeps above; it is not invisible here."""
    scenario = random_scenario(diff_seed)
    try:
        report = check_scenario(scenario)
    except OracleUnsupported as reason:
        pytest.skip(f"sqlite backend cannot run this scenario: {reason}")
    FOUND_COUNTER["oracle_checks"] += report.checks
    FOUND_COUNTER["oracle_rewritings"] += report.rewritings
    assert report.ok, f"seed={diff_seed}\n{report.describe()}"


def test_cohen_nutt_soundness_and_dominance(diff_seed):
    """The same seeds through the cross-planner differential oracle:
    the Cohen–Nutt union must be sound on the independent backend, and
    every C1–C4 rewriting must appear in the union (dominance — the
    complete strategy never loses a rewriting the incomplete one has).
    Both properties are Mismatch kinds inside ``report.ok``."""
    scenario = random_scenario(diff_seed)
    try:
        report = check_scenario(scenario, strategy="cohen_nutt")
    except OracleUnsupported as reason:
        pytest.skip(f"sqlite backend cannot run this scenario: {reason}")
    assert report.ok, f"seed={diff_seed}\n{report.describe()}"
    base = report.strategy_counts["c1c4"]
    union = report.strategy_counts["cohen_nutt"]
    assert union >= base, (
        f"seed={diff_seed}: dominance violated in counts "
        f"({base} c1c4 vs {union} cohen_nutt)"
    )
    FOUND_COUNTER["cohen_nutt_checks"] += report.checks
    FOUND_COUNTER["cohen_nutt_extras"] += union - base


def test_harness_not_vacuous():
    """Runs last in this module: the sweeps above must have produced a
    healthy number of rewritings and actually tripped some budgets."""
    assert FOUND_COUNTER["scenarios"] >= N_SCENARIOS, FOUND_COUNTER
    assert FOUND_COUNTER["rewritings"] >= 80, FOUND_COUNTER
    assert FOUND_COUNTER["budget_trips"] >= 20, FOUND_COUNTER
    assert FOUND_COUNTER["oracle_checks"] >= 3 * N_SCENARIOS, FOUND_COUNTER
    assert FOUND_COUNTER["oracle_rewritings"] >= 80, FOUND_COUNTER
    assert FOUND_COUNTER["cohen_nutt_checks"] >= 3 * N_SCENARIOS, (
        FOUND_COUNTER
    )
