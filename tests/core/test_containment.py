"""Containment and multiset equivalence of conjunctive queries.

Executable version of the paper's Section 6 contrast with [LMSS95]
(set semantics) and [CV93] (multiset equivalence = isomorphism).
"""

import random

import pytest

from repro import Catalog, Database, parse_query, table
from repro.core.containment import (
    contained_in,
    homomorphisms,
    multiset_equivalent,
    set_equivalent,
)
from repro.errors import UnsupportedSQLError


@pytest.fixture
def catalog():
    return Catalog([table("R", ["A", "B"]), table("S", ["C", "D"])])


class TestHomomorphisms:
    def test_pins_block_a_mapping_that_exists_without_them(self, catalog):
        source = parse_query("SELECT A FROM R", catalog)
        target = parse_query("SELECT A FROM R WHERE B = 1", catalog)
        (a, b) = target.from_[0].columns
        head = source.select[0].expr
        assert next(homomorphisms(source, target), None) is not None
        assert next(homomorphisms(source, target, [(head, a)]), None)
        # The only occurrence assignment sends A to A, never to B.
        assert next(homomorphisms(source, target, [(head, b)]), None) is None

    def test_pins_hold_up_to_the_targets_closure(self, catalog):
        source = parse_query("SELECT A FROM R", catalog)
        target = parse_query("SELECT A FROM R WHERE A = B", catalog)
        (_, b) = target.from_[0].columns
        head = source.select[0].expr
        assert next(homomorphisms(source, target, [(head, b)]), None)


class TestContainment:
    def test_extra_condition_contained(self, catalog):
        tight = parse_query("SELECT A FROM R WHERE A = 1 AND B = 2", catalog)
        loose = parse_query("SELECT A FROM R WHERE A = 1", catalog)
        assert contained_in(tight, loose)
        assert not contained_in(loose, tight)

    def test_extra_join_contained(self, catalog):
        joined = parse_query(
            "SELECT x.A FROM R x, R y WHERE x.A = y.A AND x.B = 1", catalog
        )
        single = parse_query("SELECT A FROM R WHERE B = 1", catalog)
        # The join can only shrink-or-keep the *set* of A values.
        assert contained_in(joined, single)

    def test_self_join_collapse(self, catalog):
        doubled = parse_query("SELECT x.A FROM R x, R y", catalog)
        single = parse_query("SELECT A FROM R", catalog)
        # Folding y onto x witnesses both directions (sets only!).
        assert set_equivalent(doubled, single)

    def test_incomparable(self, catalog):
        q1 = parse_query("SELECT A FROM R WHERE B = 1", catalog)
        q2 = parse_query("SELECT A FROM R WHERE B = 2", catalog)
        assert not contained_in(q1, q2)
        assert not contained_in(q2, q1)

    def test_different_arity_not_contained(self, catalog):
        q1 = parse_query("SELECT A FROM R", catalog)
        q2 = parse_query("SELECT A, B FROM R", catalog)
        assert not contained_in(q1, q2)

    def test_aggregation_rejected(self, catalog):
        q = parse_query("SELECT A, COUNT(B) FROM R GROUP BY A", catalog)
        plain = parse_query("SELECT A FROM R", catalog)
        with pytest.raises(UnsupportedSQLError):
            contained_in(q, plain)


class TestSetVsMultisetGap:
    """The paper's Section 6 point, demonstrated on data."""

    def test_set_equivalent_but_not_multiset(self, catalog):
        doubled = parse_query("SELECT x.A FROM R x, R y", catalog)
        single = parse_query("SELECT A FROM R", catalog)
        assert set_equivalent(doubled, single)
        assert not multiset_equivalent(doubled, single)

        # And the engine confirms both verdicts.
        db = Database(catalog, {"R": [(1, 0), (2, 0)], "S": []})
        left, right = db.execute(doubled), db.execute(single)
        assert left.set_equal(right)
        assert not left.multiset_equal(right)

    def test_isomorphic_queries_multiset_equivalent(self, catalog):
        q1 = parse_query(
            "SELECT x.A FROM R x, S WHERE x.B = C AND D = 3", catalog
        )
        q2 = parse_query(
            "SELECT r.A FROM S, R r WHERE D = 3 AND C = r.B", catalog
        )
        assert multiset_equivalent(q1, q2)

    def test_equivalent_conditions_different_syntax(self, catalog):
        q1 = parse_query(
            "SELECT A FROM R WHERE A = B AND B = 3", catalog
        )
        q2 = parse_query(
            "SELECT A FROM R WHERE A = 3 AND B = 3", catalog
        )
        assert multiset_equivalent(q1, q2)

    def test_stronger_conditions_not_multiset_equivalent(self, catalog):
        q1 = parse_query("SELECT A FROM R WHERE B = 1", catalog)
        q2 = parse_query("SELECT A FROM R", catalog)
        assert not multiset_equivalent(q1, q2)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_containment_verdicts_sound(self, catalog, seed):
        """If containment (or multiset equivalence) is claimed, no random
        database may refute it."""
        from repro.workloads.random_queries import random_block

        rng = random.Random(7_000 + seed)
        q1 = random_block(catalog, rng, aggregation=False, max_tables=2)
        q2 = random_block(catalog, rng, aggregation=False, max_tables=2)
        try:
            claim_12 = contained_in(q1, q2)
            claim_21 = contained_in(q2, q1)
            claim_ms = multiset_equivalent(q1, q2)
        except UnsupportedSQLError:
            return
        for trial in range(20):
            db = Database(
                catalog,
                {
                    "R": [
                        (rng.randint(0, 2), rng.randint(0, 2))
                        for _ in range(rng.randint(0, 5))
                    ],
                    "S": [
                        (rng.randint(0, 2), rng.randint(0, 2))
                        for _ in range(rng.randint(0, 5))
                    ],
                },
            )
            left, right = db.execute(q1), db.execute(q2)
            if claim_12:
                assert set(left.rows) <= set(right.rows), (q1, q2)
            if claim_21:
                assert set(right.rows) <= set(left.rows), (q1, q2)
            if claim_ms:
                assert left.multiset_equal(right), (q1, q2)
