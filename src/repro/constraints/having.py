"""HAVING → WHERE predicate motion (paper Section 3.3).

Before checking usability, query and view are put into a *normal form* in
which every condition that can soundly live in the WHERE clause has been
moved there, leaving the HAVING clause with only genuinely group-dependent
predicates. The paper cites predicate move-around machinery [LMS94,
RSSS95, LMS96] and states two rules, both implemented here:

rule A
    An atom whose columns are all grouping columns (or constants) moves to
    WHERE: the atom is constant within a group, so filtering groups equals
    filtering their rows.

rule B
    ``MAX(B) > c`` (or ``>=``) — equivalently ``MIN(B) < c`` / ``<=`` —
    moves as ``B > c`` when that aggregate is the *only* aggregate
    expression in the whole query: groups whose maximum fails the bound
    vanish either way, and surviving groups keep their maximum.

Both rules require a non-empty GROUP BY: without one, SQL emits a row even
for an empty core table, and moving the filter into WHERE would change
that row instead of suppressing it.
"""

from __future__ import annotations

from ..blocks.exprs import AggFunc, Aggregate
from ..blocks.query_block import QueryBlock
from ..blocks.terms import Column, Comparison, Constant, Op


def _is_where_ready(atom: Comparison, group_cols: frozenset[Column]) -> bool:
    """Rule A test: both sides grouping columns or constants."""
    for side in (atom.left, atom.right):
        if isinstance(side, Column):
            if side not in group_cols:
                return False
        elif not isinstance(side, Constant):
            return False
    return True


def _movable_extremum(atom: Comparison, query: QueryBlock):
    """Rule B test; returns the moved WHERE atom or ``None``.

    The atom must be ``AGG(B) op c`` with AGG/op in {MAX with >, >=} or
    {MIN with <, <=}, ``B`` a column, ``c`` a constant, and ``AGG(B)`` the
    only aggregate expression anywhere in ``query`` once the atom has left
    its HAVING clause.
    """
    left, op, right = atom.left, atom.op, atom.right
    if isinstance(right, Aggregate) and isinstance(left, Constant):
        left, op, right = right, op.flipped, left
    if not (isinstance(left, Aggregate) and isinstance(right, Constant)):
        return None
    if not isinstance(left.arg, Column):
        return None
    movable = (left.func is AggFunc.MAX and op in (Op.GT, Op.GE)) or (
        left.func is AggFunc.MIN and op in (Op.LT, Op.LE)
    )
    if not movable:
        return None
    rest = query.with_(having=tuple(a for a in query.having if a is not atom))
    if any(agg != left for agg in rest.all_aggregates()):
        return None
    return Comparison(left.arg, op, right)


def normalize_having(query: QueryBlock) -> QueryBlock:
    """Move the maximal sound set of HAVING atoms into WHERE.

    Iterates because rule B's "only aggregate" premise can become true
    after other atoms move out of HAVING.
    """
    if not query.having or not query.group_by:
        return query

    block = query
    group_cols = frozenset(block.group_by)
    changed = True
    while changed and block.having:
        changed = False
        for atom in block.having:
            if _is_where_ready(atom, group_cols):
                moved = Comparison(atom.left, atom.op, atom.right)
            else:
                moved = _movable_extremum(atom, block)
            if moved is not None:
                block = block.with_(
                    where=block.where + (moved,),
                    having=tuple(a for a in block.having if a is not atom),
                )
                changed = True
                break
    return block
