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
