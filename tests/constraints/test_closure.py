"""Closure unit tests: entailment, satisfiability, bounds (footnote 2)."""

import pytest

from repro.blocks.exprs import AggFunc, Aggregate
from repro.blocks.terms import Column, Comparison, Constant, Op
from repro.constraints.closure import Closure

A, B, C, D = Column("A"), Column("B"), Column("C"), Column("D")


def atoms(*specs):
    """Shorthand: ('A', '<', 'B') or ('A', '=', 3)."""
    out = []
    for left, op, right in specs:
        left_t = Column(left) if isinstance(left, str) else Constant(left)
        right_t = Column(right) if isinstance(right, str) else Constant(right)
        out.append(Comparison(left_t, Op(op), right_t))
    return out


def entails(premises, atom_spec):
    return Closure(atoms(*premises)).entails(atoms(atom_spec)[0])


class TestEquality:
    def test_transitive(self):
        assert entails([("A", "=", "B"), ("B", "=", "C")], ("A", "=", "C"))

    def test_symmetric(self):
        assert entails([("A", "=", "B")], ("B", "=", "A"))

    def test_reflexive(self):
        assert entails([], ("A", "=", "A"))

    def test_not_entailed(self):
        assert not entails([("A", "=", "B")], ("A", "=", "C"))

    def test_le_cycle_becomes_equality(self):
        assert entails([("A", "<=", "B"), ("B", "<=", "A")], ("A", "=", "B"))

    def test_long_le_cycle(self):
        premises = [("A", "<=", "B"), ("B", "<=", "C"), ("C", "<=", "A")]
        assert entails(premises, ("A", "=", "C"))

    def test_equality_with_constant_propagates(self):
        assert entails([("A", "=", 5), ("A", "=", "B")], ("B", "=", 5))


class TestOrder:
    def test_lt_transitive(self):
        assert entails([("A", "<", "B"), ("B", "<", "C")], ("A", "<", "C"))

    def test_le_lt_mix_is_strict(self):
        assert entails([("A", "<=", "B"), ("B", "<", "C")], ("A", "<", "C"))

    def test_le_le_not_strict(self):
        assert not entails([("A", "<=", "B"), ("B", "<=", "C")], ("A", "<", "C"))
        assert entails([("A", "<=", "B"), ("B", "<=", "C")], ("A", "<=", "C"))

    def test_through_equality(self):
        assert entails([("A", "=", "B"), ("B", "<", "C")], ("A", "<", "C"))

    def test_ge_gt_orientations(self):
        assert entails([("A", ">=", "B"), ("B", ">", "C")], ("A", ">", "C"))
        assert entails([("C", "<", "B"), ("B", "<=", "A")], ("A", ">", "C"))

    def test_le_plus_ne_gives_lt(self):
        assert entails([("A", "<=", "B"), ("A", "<>", "B")], ("A", "<", "B"))

    def test_lt_gives_le_and_ne(self):
        assert entails([("A", "<", "B")], ("A", "<=", "B"))
        assert entails([("A", "<", "B")], ("A", "<>", "B"))
        assert entails([("A", "<", "B")], ("B", ">", "A"))


class TestConstants:
    def test_constant_order_bridges_columns(self):
        # A <= 5, 7 <= B entails A < B via 5 < 7.
        assert entails([("A", "<=", 5), ("B", ">=", 7)], ("A", "<", "B"))

    def test_bounds_vs_unmentioned_constant(self):
        assert entails([("A", ">=", 5)], ("A", ">", 3))
        assert entails([("A", ">", 5)], ("A", ">=", 5))
        assert not entails([("A", ">=", 5)], ("A", ">", 7))

    def test_pinned_constant(self):
        assert entails([("A", "=", 5)], ("A", "<", 9))
        assert entails([("A", "=", 5)], ("A", "<>", 4))
        assert not entails([("A", "=", 5)], ("A", "<>", 5))

    def test_ne_from_disjoint_bounds(self):
        assert entails([("A", "<", 3), ("B", ">", 4)], ("A", "<>", "B"))

    def test_constant_constant_direct(self):
        assert entails([], (3, "<", 5))
        assert not entails([], (5, "<", 3))
        cl = Closure([])
        assert cl.entails(Comparison(Constant(3), Op.NE, Constant("x")))

    def test_string_constants_ordered(self):
        cl = Closure(
            [
                Comparison(A, Op.LE, Constant("apple")),
                Comparison(B, Op.GE, Constant("banana")),
            ]
        )
        assert cl.entails(Comparison(A, Op.LT, B))


class TestSatisfiability:
    def test_strict_cycle_unsat(self):
        assert not Closure(atoms(("A", "<", "B"), ("B", "<", "A"))).satisfiable

    def test_strict_self_loop_unsat(self):
        assert not Closure(atoms(("A", "<", "A"))).satisfiable

    def test_le_cycle_sat(self):
        assert Closure(atoms(("A", "<=", "B"), ("B", "<=", "A"))).satisfiable

    def test_two_constants_one_class_unsat(self):
        assert not Closure(atoms(("A", "=", 3), ("A", "=", 4))).satisfiable

    def test_string_vs_int_pin_unsat(self):
        assert not Closure(
            [
                Comparison(A, Op.EQ, Constant(3)),
                Comparison(A, Op.EQ, Constant("three")),
            ]
        ).satisfiable

    def test_ne_within_class_unsat(self):
        assert not Closure(
            atoms(("A", "=", "B"), ("A", "<>", "B"))
        ).satisfiable

    def test_ne_through_equalities_unsat(self):
        assert not Closure(
            atoms(("A", "=", "B"), ("B", "=", "C"), ("A", "<>", "C"))
        ).satisfiable

    def test_constant_contradiction_unsat(self):
        assert not Closure(atoms((5, "<", 3))).satisfiable
        assert not Closure(atoms(("A", ">=", 5), ("A", "<", 4))).satisfiable

    def test_unsat_entails_everything(self):
        cl = Closure(atoms(("A", "<", "A")))
        assert cl.entails(atoms(("C", "=", "D"))[0])

    def test_bounds_squeeze_sat(self):
        # A >= 3 and A <= 3 pins A to 3 (satisfiable).
        cl = Closure(atoms(("A", ">=", 3), ("A", "<=", 3)))
        assert cl.satisfiable
        assert cl.entails(atoms(("A", "=", 3))[0])


class TestOpaqueTerms:
    """HAVING reasoning: aggregates are opaque closure nodes."""

    def test_aggregate_bounds(self):
        s = Aggregate(AggFunc.SUM, A)
        cl = Closure([Comparison(s, Op.GT, Constant(100))])
        assert cl.entails(Comparison(s, Op.GT, Constant(50)))
        assert not cl.entails(Comparison(s, Op.GT, Constant(200)))

    def test_aggregate_identity_matters(self):
        s_a = Aggregate(AggFunc.SUM, A)
        s_b = Aggregate(AggFunc.SUM, B)
        cl = Closure([Comparison(s_a, Op.GT, Constant(100))])
        assert not cl.entails(Comparison(s_b, Op.GT, Constant(50)))

    def test_aggregate_vs_column(self):
        m = Aggregate(AggFunc.MAX, B)
        cl = Closure([Comparison(m, Op.LE, A), Comparison(A, Op.LT, Constant(2))])
        assert cl.entails(Comparison(m, Op.LT, Constant(2)))


class TestQueries:
    def test_equality_class(self):
        cl = Closure(atoms(("A", "=", "B"), ("B", "=", 4)))
        cls = cl.equality_class(A)
        assert B in cls and Constant(4) in cls

    def test_constant_of(self):
        cl = Closure(atoms(("A", "=", "B"), ("B", "=", 4)))
        assert cl.constant_of(A) == Constant(4)
        assert cl.constant_of(C) is None
        assert cl.constant_of(Constant(9)) == Constant(9)

    def test_bounds_api(self):
        cl = Closure(atoms(("A", ">", 2), ("A", "<=", 10)))
        lower, upper = cl.bounds(A)
        assert lower == (2, True)
        assert upper == (10, False)

    def test_entailed_atoms_over_vocabulary(self):
        cl = Closure(atoms(("A", "=", "B"), ("B", "<", "C"), ("C", "<=", 5)))
        got = {str(a.normalized()) for a in cl.entailed_atoms_over([A, C])}
        assert "A < C" in got

    def test_entailed_atoms_skips_weaker_duplicates(self):
        cl = Closure(atoms(("A", "<", "B")))
        rendered = [str(a) for a in cl.entailed_atoms_over([A, B])]
        assert rendered == ["A < B"]  # no extra <=, <> atoms

    def test_len_counts_entailed_atoms(self):
        cl = Closure(atoms(("A", "=", "B")))
        assert len(cl) >= 1


class TestUnknownTerms:
    def test_unseen_column_only_reflexive(self):
        cl = Closure(atoms(("A", "=", "B")))
        Z = Column("Z")
        assert cl.entails(Comparison(Z, Op.EQ, Z))
        assert cl.entails(Comparison(Z, Op.LE, Z))
        assert not cl.entails(Comparison(Z, Op.EQ, A))
        assert not cl.entails(Comparison(Z, Op.LT, Z))


def _every_pair(closure, allowed):
    """``entailed_atoms_over`` as it read before it skipped terms the
    closure never saw: every pair of allowed terms is tested."""
    out = []
    items = list(dict.fromkeys(allowed))
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if isinstance(a, Constant) and isinstance(b, Constant):
                continue
            if closure.entails(Comparison(a, Op.EQ, b)):
                out.append(Comparison(a, Op.EQ, b))
                continue
            if closure.entails(Comparison(a, Op.LT, b)):
                out.append(Comparison(a, Op.LT, b))
            elif closure.entails(Comparison(b, Op.LT, a)):
                out.append(Comparison(b, Op.LT, a))
            else:
                for atom in (
                    Comparison(a, Op.LE, b),
                    Comparison(b, Op.LE, a),
                    Comparison(a, Op.NE, b),
                ):
                    if closure.entails(atom):
                        out.append(atom)
    return out


class TestEntailedAtomsOverUnseenTerms:
    def test_same_atoms_as_every_pair_on_the_differential_closures(self):
        """The 240 differential scenarios' query and view closures, over
        the query's columns, the views' columns (mostly unseen by the
        query closure) and the constants of both plus one fresh one."""
        from repro.constraints.having import normalize_having
        from repro.workloads.random_queries import random_scenario

        compared = 0
        for seed in range(240):
            scenario = random_scenario(seed)
            query = normalize_having(scenario.query)
            blocks = [query] + [view.block for view in scenario.views]
            vocabulary = [c for block in blocks for c in block.cols()]
            vocabulary += [
                side
                for block in blocks
                for atom in block.where
                for side in (atom.left, atom.right)
                if isinstance(side, Constant)
            ]
            vocabulary.append(Constant(99))
            for block in blocks:
                closure = Closure(block.where)
                assert closure.entailed_atoms_over(vocabulary) == (
                    _every_pair(closure, vocabulary)
                ), f"seed={seed}: {block.where}"
                compared += 1
        assert compared >= 240 * 2

    def test_an_unsatisfiable_closure_keeps_every_term(self):
        closure = Closure(atoms(("A", "<", "B"), ("B", "<", "A")))
        Z = Column("Z")
        assert not closure.satisfiable
        assert closure.entailed_atoms_over([A, Z]) == (
            _every_pair(closure, [A, Z])
        )
        assert Comparison(A, Op.EQ, Z) in closure.entailed_atoms_over([A, Z])
