"""Experiment E9 — predicate-closure cost (Section 3.1, footnote 2).

The paper: "the closure of Conds(Q) has size polynomial in the size of
Conds(Q)" and condition checking works "by comparing the closures". We
measure closure construction + full entailed-atom enumeration on chains
of inequality predicates (the worst case for transitive reasoning) and on
equality-heavy conjunctions (union-find dominated).

Shape to observe: entailed-atom count grows quadratically (it is the
transitive closure of a chain); time stays polynomial, milliseconds at
query-sized inputs.
"""

import pytest

from repro.bench import ResultTable, time_best
from repro.blocks.terms import Column, Comparison, Constant, Op
from repro.constraints.closure import Closure


def chain(n: int) -> list[Comparison]:
    """x0 < x1 < ... < xn plus a constant anchor."""
    cols = [Column(f"x{i}") for i in range(n + 1)]
    atoms = [
        Comparison(cols[i], Op.LT, cols[i + 1]) for i in range(n)
    ]
    atoms.append(Comparison(cols[0], Op.GE, Constant(0)))
    return atoms


def equality_clusters(n: int) -> list[Comparison]:
    """n/4 clusters of 4 equal columns plus cross-cluster inequalities."""
    atoms = []
    for c in range(max(1, n // 4)):
        base = Column(f"e{c}_0")
        for j in range(1, 4):
            atoms.append(Comparison(base, Op.EQ, Column(f"e{c}_{j}")))
        if c:
            atoms.append(
                Comparison(Column(f"e{c - 1}_0"), Op.LE, base)
            )
    return atoms


def test_chain_scaling(benchmark):
    table = ResultTable(
        "E9: closure of inequality chains",
        ["atoms", "entailed_atoms", "seconds"],
    )
    for n in (4, 8, 16, 32, 64):
        atoms = chain(n)
        closure = Closure(atoms)
        entailed = len(closure)
        seconds = time_best(lambda: len(Closure(atoms)), repeats=3)
        table.add(len(atoms), entailed, seconds)
    table.show()

    # Quadratic size check: doubling the chain ~quadruples the closure.
    small, large = len(Closure(chain(16))), len(Closure(chain(32)))
    assert 2.5 <= large / small <= 6

    atoms = chain(16)
    benchmark(lambda: len(Closure(atoms)))


def test_equality_scaling(benchmark):
    table = ResultTable(
        "E9: closure of equality clusters",
        ["atoms", "entailed_atoms", "seconds"],
    )
    for n in (8, 16, 32, 64):
        atoms = equality_clusters(n)
        seconds = time_best(lambda: len(Closure(atoms)), repeats=3)
        table.add(len(atoms), len(Closure(atoms)), seconds)
    table.show()

    atoms = equality_clusters(32)
    benchmark(lambda: Closure(atoms).satisfiable)


def test_entailment_query(benchmark):
    """Single entailment queries after construction are near-free."""
    atoms = chain(32)
    closure = Closure(atoms)
    goal = Comparison(Column("x0"), Op.LT, Column("x32"))
    assert closure.entails(goal)
    benchmark(lambda: closure.entails(goal))


def test_residual_computation(benchmark):
    """The full condition-C3 workload at realistic query size."""
    from repro.constraints.residual import find_residual

    conds_q = chain(12)
    view_conds = conds_q[:6]
    allowed = [Column(f"x{i}") for i in range(0, 13, 2)]
    benchmark(lambda: find_residual(conds_q, view_conds, allowed))
