"""Experiment E8 — multi-view rewriting (Theorem 3.2).

Measures the iterative all-rewritings search on the star warehouse and
checks the Church-Rosser property operationally: incorporating the views
in any order costs the same and lands on the same rewriting.
"""

import itertools

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.bench import ResultTable, time_best
from repro.core.canonical import canonical_key
from repro.core.multiview import all_rewritings, rewrite_iteratively
from repro.workloads import star


@pytest.fixture(scope="module")
def star_workload():
    return star.generate(n_sales=500)


def test_all_rewritings_star(star_workload, benchmark):
    wl = star_workload
    views = list(wl.views.values())
    table_out = ResultTable(
        "E8: all_rewritings over the star warehouse",
        ["query", "rewritings", "seconds"],
    )
    for name, query in wl.queries.items():
        found = all_rewritings(query, views, wl.catalog)
        seconds = time_best(
            lambda: all_rewritings(query, views, wl.catalog), repeats=2
        )
        table_out.add(name, len(found), seconds)
    table_out.show()

    query = wl.queries["category_revenue"]
    benchmark(lambda: all_rewritings(query, views, wl.catalog))


def test_church_rosser_orders(benchmark):
    """Theorem 3.2(2): every incorporation order, same canonical result."""
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
        "SELECT A, COUNT(C) FROM R, S, T WHERE B = C AND D = E GROUP BY A",
        catalog,
    )

    def all_orders():
        keys = set()
        for order in itertools.permutations(views):
            result = rewrite_iteratively(query, list(order), catalog)
            keys.add(canonical_key(result.query))
        assert len(keys) == 1
        return keys

    benchmark(all_orders)


def test_iterative_depth(benchmark):
    """Cost of one greedy full-order pass (the production code path)."""
    wl = star.generate(n_sales=200)
    views = list(wl.views.values())
    query = wl.queries["category_revenue"]
    benchmark(lambda: rewrite_iteratively(query, views, wl.catalog))


# ----------------------------------------------------------------------
# Machine-readable metrics (BENCH_rewriting.json)
# ----------------------------------------------------------------------


def collect_multiview_metrics(repeats: int = 7) -> dict:
    """The planner A/B numbers for the multi-view star workload.

    Baseline is the naive search with every memoization cache disabled
    (the seed behavior); the planner is timed warm, modeling repeated
    rewrite traffic against a fixed view set — the paper's semantic-cache
    scenario. Asserts result-set parity before timing anything.
    """
    from repro.core.multiview import all_rewritings_naive
    from repro.core.planner import RewritePlanner, baseline_mode, cache_stats
    from repro.memo import clear_shared

    wl = star.generate(n_sales=1_000)
    views = list(wl.views.values())
    planner = RewritePlanner(views, wl.catalog)

    def run_naive():
        out = []
        for query in wl.queries.values():
            out.extend(
                all_rewritings_naive(
                    query,
                    views,
                    wl.catalog,
                    max_steps=3,
                    include_partial=False,
                )
            )
        return out

    def run_planner():
        out = []
        for query in wl.queries.values():
            out.extend(
                planner.all_rewritings(
                    query, max_steps=3, include_partial=False
                )
            )
        return out

    clear_shared()

    naive_keys = sorted(canonical_key(r.query) for r in run_naive())
    planner_keys = sorted(canonical_key(r.query) for r in run_planner())
    assert naive_keys == planner_keys, (
        "planner/naive parity violation on the star workload: "
        f"{len(naive_keys)} naive vs {len(planner_keys)} planned rewritings"
    )

    with baseline_mode():
        t_naive = time_best(run_naive, repeats=repeats)
    run_planner()  # warm the memoization caches
    t_planner = time_best(run_planner, repeats=repeats)

    per_query = {}
    for name, query in wl.queries.items():
        found = planner.all_rewritings(
            query, max_steps=3, include_partial=False
        )
        per_query[name] = {
            "rewritings": len(found),
            "seconds": time_best(
                lambda q=query: planner.all_rewritings(
                    q, max_steps=3, include_partial=False
                ),
                repeats=3,
            ),
        }

    return {
        "workload": "star",
        "queries": len(wl.queries),
        "views": len(views),
        "rewritings": len(naive_keys),
        "naive_seconds": t_naive,
        "planner_seconds": t_planner,
        "speedup": t_naive / t_planner if t_planner > 0 else None,
        "parity": "ok",
        "per_query": per_query,
        "planner_stats": planner.stats.as_dict(),
        "cache_stats": cache_stats(),
    }


def collect_church_rosser_metrics() -> dict:
    """Theorem 3.2(2) operationally: one canonical result per order."""
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
        "SELECT A, COUNT(C) FROM R, S, T WHERE B = C AND D = E GROUP BY A",
        catalog,
    )
    keys = set()
    orders = 0
    for order in itertools.permutations(views):
        result = rewrite_iteratively(query, list(order), catalog)
        keys.add(canonical_key(result.query))
        orders += 1
    assert len(keys) == 1, (
        f"Church-Rosser violation: {len(keys)} distinct results "
        f"over {orders} incorporation orders"
    )
    return {"orders": orders, "distinct_results": len(keys)}
