"""Planner/naive parity: the indexed search returns the same rewritings.

The :class:`~repro.core.planner.RewritePlanner` promises the *same result
set* as the naive breadth-first search — signature pruning only skips
views that could not contribute a mapping, and the memoization caches are
semantically transparent. These tests pin that promise on the paper's
examples, the generated workloads, and randomized query/view pairs, for
both ``include_partial`` modes.
"""

import itertools
import random

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.core.canonical import canonical_key
from repro.core.multiview import (
    all_rewritings,
    all_rewritings_naive,
    rewrite_iteratively,
)
from repro.core.planner import RewritePlanner, ViewSignature
from repro.memo import disabled
from repro.workloads import star, telephony
from repro.workloads.random_queries import (
    random_catalog,
    random_view,
    related_pair,
)


def keys_of(rewritings):
    return sorted(canonical_key(r.query) for r in rewritings)


def assert_parity(
    query, views, catalog, use_set_semantics=False, max_steps=3
):
    """Both search paths, both maximality modes, same canonical sets."""
    planner = RewritePlanner(views, catalog, use_set_semantics)
    for include_partial in (True, False):
        naive = all_rewritings_naive(
            query,
            views,
            catalog,
            use_set_semantics=use_set_semantics,
            max_steps=max_steps,
            include_partial=include_partial,
        )
        planned = planner.all_rewritings(
            query, max_steps=max_steps, include_partial=include_partial
        )
        assert keys_of(naive) == keys_of(planned), (
            f"parity violation (include_partial={include_partial}) "
            f"for {query}"
        )


class TestPaperExamples:
    def test_example_3_1(self, rs_catalog):
        query = parse_query(
            "SELECT A, D FROM R1, R2 WHERE B = C AND D >= 5", rs_catalog
        )
        view = parse_view(
            "CREATE VIEW V (VA, VD) AS "
            "SELECT A, D FROM R1, R2 WHERE B = C",
            rs_catalog,
        )
        rs_catalog.add_view(view)
        assert_parity(query, [view], rs_catalog)

    def test_example_4_1(self, wide_catalog):
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
        assert_parity(query, [view], wide_catalog)

    def test_telephony_example_1_1(self):
        wl = telephony.generate(n_calls=200)
        assert_parity(wl.query, [wl.view], wl.catalog)


class TestWorkloads:
    def test_star_all_queries(self):
        wl = star.generate(n_sales=200)
        views = list(wl.views.values())
        for query in wl.queries.values():
            assert_parity(query, views, wl.catalog)

    def test_star_set_semantics(self):
        wl = star.generate(n_sales=200)
        views = list(wl.views.values())
        for query in wl.queries.values():
            assert_parity(query, views, wl.catalog, use_set_semantics=True)

    def test_star_under_baseline_mode(self):
        """Parity must hold with every cache disabled, too."""
        wl = star.generate(n_sales=200)
        views = list(wl.views.values())
        with disabled():
            for query in wl.queries.values():
                assert_parity(query, views, wl.catalog)

    def test_dispatch_equivalence(self):
        """all_rewritings(use_planner=True/False) agree end to end."""
        wl = star.generate(n_sales=200)
        views = list(wl.views.values())
        for query in wl.queries.values():
            fast = all_rewritings(
                query, views, wl.catalog, use_planner=True
            )
            slow = all_rewritings(
                query, views, wl.catalog, use_planner=False
            )
            assert keys_of(fast) == keys_of(slow)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(12))
    def test_related_pairs(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query, view = related_pair(catalog, rng)
        catalog.add_view(view)
        assert_parity(query, [view], catalog)

    @pytest.mark.parametrize("seed", range(6))
    def test_multiple_random_views(self, seed):
        rng = random.Random(1000 + seed)
        catalog = random_catalog(rng)
        query, view = related_pair(catalog, rng)
        views = [view]
        for i in range(2):
            extra = random_view(catalog, rng, f"W{i}")
            views.append(extra)
        for v in views:
            catalog.add_view(v)
        assert_parity(query, views, catalog)


class TestChurchRosser:
    def test_order_independence_through_planner(self):
        """Theorem 3.2(2): any incorporation order, one canonical result —
        and the planner-backed iterative path agrees with it."""
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
        keys = set()
        for order in itertools.permutations(views):
            result = rewrite_iteratively(query, list(order), catalog)
            keys.add(canonical_key(result.query))
        assert len(keys) == 1

        planner = RewritePlanner(views, catalog)
        full = [
            r
            for r in planner.all_rewritings(query, include_partial=False)
            if len(r.query.from_) == 3
        ]
        assert keys == {canonical_key(r.query) for r in full}


class TestViewSignature:
    def _view(self, catalog, sql):
        return parse_view(sql, catalog)

    def test_multiset_containment_one_to_one(self):
        catalog = Catalog([table("R", ["A", "B"])])
        view = self._view(
            catalog,
            "CREATE VIEW V (X, Y) AS SELECT R.A, R2.A AS Y "
            "FROM R, R AS R2 WHERE R.B = R2.B",
        )
        signature = ViewSignature.of(view)
        single = parse_query("SELECT A, B FROM R", catalog)
        double = parse_query(
            "SELECT R.A, R2.B FROM R, R AS R2", catalog
        )
        from repro.core.planner import _from_counts

        # The self-join view needs two R occurrences under 1-1 mappings,
        # but a single occurrence suffices for many-to-1 (set semantics).
        assert not signature.admits(_from_counts(single), False)
        assert signature.admits(_from_counts(double), False)
        assert signature.admits(_from_counts(single), True)

    def test_missing_relation_always_rejected(self):
        catalog = Catalog([table("R", ["A", "B"]), table("S", ["C", "D"])])
        view = self._view(
            catalog, "CREATE VIEW V (X) AS SELECT C FROM S"
        )
        signature = ViewSignature.of(view)
        from repro.core.planner import _from_counts

        query = parse_query("SELECT A FROM R", catalog)
        assert not signature.admits(_from_counts(query), False)
        assert not signature.admits(_from_counts(query), True)

    def test_pruned_views_cannot_rewrite(self):
        """The prune is sound: a signature-rejected view yields nothing."""
        rng = random.Random(3)
        catalog = random_catalog(rng)
        query, view = related_pair(catalog, rng)
        catalog.add_view(view)
        planner = RewritePlanner([view], catalog)
        from repro.core.multiview import single_view_rewritings

        if not planner.candidate_views(query):
            assert single_view_rewritings(query, view, catalog) == []
