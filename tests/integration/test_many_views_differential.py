"""Many-views differential: the planner's view pruning against the naive
search, where most views cannot answer.

``random_scenario(seed, max_views=16)`` gives each query up to fifteen
unconstrained views beside its related one, so the FROM signature and
the coverage prefilter (:class:`repro.core.planner.QueryCoverage`) turn
most (node, view) pairs away. Two properties are held on every seed:

* the planner returns what the naive search returns, ranked the same
  with the same costs;
* every pair the prefilter rejects is one the rewriter's own checks
  reject, and :func:`repro.core.explain.explain_usability` shows a
  ``[FAIL]`` line for the condition the missed key stands for under
  every mapping — on these scenarios and on the 240 of the default
  differential.

The base seed is shiftable like the differential soundness harness::

    PYTHONPATH=src python -m pytest tests/integration/test_many_views_differential.py --seed 5000
"""

from collections import Counter

from repro.core.canonical import canonical_key
from repro.core.explain import explain_usability
from repro.core.multiview import all_rewritings, single_view_rewritings
from repro.core.planner import QueryCoverage, RewritePlanner, _from_counts
from repro.core.rewriter import rank
from repro.workloads.random_queries import random_scenario

#: Seeded many-views scenarios per sweep.
N_SCENARIOS = 200
MAX_VIEWS = 16
#: The default differential's sweep (test_differential_soundness).
N_DEFAULT = 240

REJECTED = Counter()
RANKED = Counter()


def pytest_generate_tests(metafunc):
    base = metafunc.config.getoption("--seed")
    if "views_seed" in metafunc.fixturenames:
        metafunc.parametrize("views_seed", range(base, base + N_SCENARIOS))
    if "diff_seed" in metafunc.fixturenames:
        metafunc.parametrize("diff_seed", range(base, base + N_DEFAULT))


def _ranked(rewritings, catalog) -> list:
    return [
        (canonical_key(r.rewriting.query), r.cost)
        for r in rank(rewritings, catalog)
    ]


def test_planner_matches_naive_with_many_views(views_seed):
    scenario = random_scenario(views_seed, max_views=MAX_VIEWS)
    for include_partial in (True, False):
        planned = all_rewritings(
            scenario.query, scenario.views, scenario.catalog,
            include_partial=include_partial,
        )
        naive = all_rewritings(
            scenario.query, scenario.views, scenario.catalog,
            include_partial=include_partial, use_planner=False,
        )
        assert [canonical_key(r.query) for r in planned] == [
            canonical_key(r.query) for r in naive
        ], f"seed={views_seed}: planner/naive result lists diverge"
        assert _ranked(planned, scenario.catalog) == _ranked(
            naive, scenario.catalog
        ), f"seed={views_seed}: planner/naive rankings diverge"
        RANKED["rewritings"] += len(planned)


def _rejections(scenario):
    """``(block, view, condition)`` for every pair the prefilter rejects
    at the root and at every node the planned search reaches."""
    planner = RewritePlanner(scenario.views, scenario.catalog)
    results = planner.all_rewritings(scenario.query)
    for block in [scenario.query] + [r.query for r in results]:
        coverage = QueryCoverage(block)
        counts = _from_counts(block)
        for view, signature in zip(planner.views, planner.signatures):
            if signature.coverage is None or not signature.admits(
                counts, False
            ):
                continue
            missed = coverage.missed_by(signature.coverage)
            if missed is not None:
                yield block, view, missed


def _assert_explained(scenario, label: str) -> None:
    for block, view, missed in _rejections(scenario):
        REJECTED[missed] += 1
        context = f"{label} view={view.name} key={missed}\nnode: {block}"
        assert single_view_rewritings(block, view, scenario.catalog) == [], (
            f"{context}: the prefilter rejected a usable view"
        )
        diagnosis = explain_usability(block, view)
        assert not diagnosis.usable and diagnosis.mappings, context
        for mapping in diagnosis.mappings:
            assert any(
                report.condition == missed and not report.ok
                for report in mapping.reports
            ), f"{context}\n{diagnosis.summary()}"


def test_explain_agrees_with_rejections_many_views(views_seed):
    scenario = random_scenario(views_seed, max_views=MAX_VIEWS)
    _assert_explained(scenario, f"seed={views_seed} (many views)")


def test_explain_agrees_with_rejections_default(diff_seed):
    _assert_explained(random_scenario(diff_seed), f"seed={diff_seed}")


def test_sweeps_not_vacuous():
    """Runs last in this module: rewritings were ranked, and the
    prefilter rejected pairs under every key of both rewriting paths."""
    assert RANKED["rewritings"] >= 100, RANKED
    for condition in ("C2", "C3", "C4", "C2'", "C3'", "C4'"):
        assert REJECTED[condition] >= 1, REJECTED
