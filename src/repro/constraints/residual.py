"""Residual conditions: the ``Conds'`` of conditions C3 and C3'.

Condition C3 asks for a conjunction ``Conds'`` such that

    ``Conds(Q)  ≡  φ(Conds(V)) ∧ Conds'``

where ``Conds'`` mentions only columns still *available* after the view
replaces its image tables (columns of non-image tables, plus the images of
the view's SELECT columns — C3' further excludes aggregated view outputs).

The construction restricts the closure of ``Conds(Q)`` to the allowed
vocabulary and checks the equivalence; for equality-only predicates this is
complete (Theorem 3.1), and it is sound in general.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..blocks.exprs import columns_in
from ..blocks.terms import Column, Comparison, Constant
from ..memo import MISSING, shared
from .closure import Closure, closure_of
from .implication import minimize


def atoms_constants(atoms: Iterable[Comparison]) -> list[Constant]:
    """All constants mentioned in a conjunction, in first-seen order."""
    out: dict[Constant, None] = {}
    for atom in atoms:
        for side in (atom.left, atom.right):
            if isinstance(side, Constant):
                out[side] = None
    return list(out)


#: Memo for :func:`find_residual`. A C3 check is a pure function of the
#: query conditions, the mapped view conditions and the *ordered* allowed
#: vocabulary (the construction's output order follows it), so repeated
#: rewrite traffic — the same query probed against the same views — reuses
#: the entailed-atom enumeration and minimization outright.
_residuals = shared("residual", cap=4096)


def find_residual(
    conds_q: Sequence[Comparison],
    mapped_view_conds: Sequence[Comparison],
    allowed_columns: Iterable[Column],
) -> Optional[list[Comparison]]:
    """Compute ``Conds'`` for condition C3/C3', or ``None`` when the
    equivalence cannot be established.

    ``mapped_view_conds`` is ``φ(Conds(V))`` — the view's conditions with
    its columns renamed into query columns by the candidate mapping.
    """
    allowed_terms: list = list(dict.fromkeys(allowed_columns))
    allowed_terms += atoms_constants(conds_q)
    allowed_terms += atoms_constants(mapped_view_conds)

    key = (
        frozenset(conds_q),
        frozenset(mapped_view_conds),
        tuple(allowed_terms),
    )
    cached = _residuals.get(key)
    if cached is MISSING:
        result = _find_residual_uncached(
            conds_q, mapped_view_conds, allowed_terms
        )
        _residuals.put(key, None if result is None else tuple(result))
        return result
    # The stored tuple is shared; callers get a private list.
    return None if cached is None else list(cached)


def _find_residual_uncached(
    conds_q: Sequence[Comparison],
    mapped_view_conds: Sequence[Comparison],
    allowed_terms: Sequence,
) -> Optional[list[Comparison]]:
    closure_q = closure_of(conds_q)
    if not closure_q.satisfiable:
        # Q is unsatisfiable (returns no groups on any database). Declining
        # to rewrite is sound; callers may special-case this if desired.
        return None

    # First half of C3: Conds(Q) must enforce everything the view enforces,
    # otherwise the view discards tuples that Q needs.
    if not closure_q.entails_all(mapped_view_conds):
        return None

    candidates = closure_q.entailed_atoms_over(allowed_terms)

    # Second half of C3: the view's conditions plus the residual must give
    # back exactly Conds(Q).
    combined = closure_of(tuple(mapped_view_conds) + tuple(candidates))
    if not combined.entails_all(conds_q):
        return None

    return minimize(candidates, context=mapped_view_conds)


def express_over(
    atom: Comparison,
    closure: Closure,
    allowed_columns: frozenset[Column],
) -> Optional[Comparison]:
    """Rewrite an atom onto the allowed vocabulary using entailed equalities.

    Each side that is a disallowed column is replaced by an equal allowed
    column or pinned constant, when one exists.
    """

    def fix(side):
        if not isinstance(side, Column) or side in allowed_columns:
            return side
        for candidate in sorted(closure.equality_class(side), key=str):
            if isinstance(candidate, Column) and candidate in allowed_columns:
                return candidate
        pinned = closure.constant_of(side)
        if pinned is not None:
            return pinned
        return None

    left = fix(atom.left)
    right = fix(atom.right)
    if left is None or right is None:
        return None
    return Comparison(left, atom.op, right)


def rewrite_conjunction(
    atoms: Sequence[Comparison],
    closure: Closure,
    allowed_columns: frozenset[Column],
) -> Optional[list[Comparison]]:
    """Express every atom over the allowed vocabulary, or ``None``."""
    out = []
    for atom in atoms:
        fixed = express_over(atom, closure, allowed_columns)
        if fixed is None:
            return None
        out.append(fixed)
    return out
