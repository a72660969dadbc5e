"""View unfolding: multi-block queries to single-block (paper Section 7).

"Often, multi-block SQL queries (e.g., queries with view tables in the
FROM clause) can be transformed to single-block queries ... In such
cases, our techniques can also be applied."

A query whose FROM clause mentions a *conjunctive* view can be flattened:
the view occurrence is replaced by the view's own FROM tables (with fresh
column names), references to the view's outputs become references to the
defining columns, and the view's conditions join the WHERE clause. Under
multiset semantics this is an equivalence (the view contributes exactly
the multiset its definition computes).

Aggregation views cannot be flattened into a single block and are left in
place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import NormalizationError
from .exprs import substitute_expr
from .naming import FreshNames, base_of
from .query_block import QueryBlock, Relation, SelectItem, ViewDef
from .terms import Column, Comparison

if TYPE_CHECKING:
    from ..catalog.schema import Catalog


def _unfoldable(view: ViewDef) -> bool:
    if not view.block.is_conjunctive or view.block.distinct:
        return False
    return all(
        isinstance(item.expr, Column) for item in view.block.select
    )


def unfold_once(
    block: QueryBlock, catalog: "Catalog"
) -> Optional[QueryBlock]:
    """Unfold the first unfoldable view occurrence; None when there is
    none."""
    for position, rel in enumerate(block.from_):
        if not catalog.is_view(rel.name):
            continue
        view = catalog.view(rel.name)
        if not _unfoldable(view):
            continue
        return unfold_occurrence(block, position, view)
    return None


def unfold_views(block: QueryBlock, catalog: "Catalog") -> QueryBlock:
    """Unfold every conjunctive-view occurrence, recursively.

    View definitions cannot be cyclic (a catalog only accepts views over
    already-known names), so this terminates.
    """
    current = block
    while True:
        unfolded = unfold_once(current, catalog)
        if unfolded is None:
            return current
        current = unfolded


def unfold_occurrence(
    block: QueryBlock, position: int, view: ViewDef
) -> QueryBlock:
    """Replace ``block.from_[position]``, an occurrence of the
    conjunctive ``view``, by a fresh copy of the view's body.

    The view need not be registered in any catalog; the result is
    multiset-equivalent to ``block``.
    """
    rel = block.from_[position]
    namer = FreshNames(c.name for c in block.cols())

    # Fresh copy of the view body.
    theta: dict[Column, Column] = {
        col: namer.column(base_of(col)) for col in view.block.cols()
    }
    body = view.block.substitute(theta)

    # Map the occurrence's output columns onto the defining columns.
    sigma: dict[Column, Column] = {}
    for out_col, item in zip(rel.columns, body.select):
        expr = item.expr
        if not isinstance(expr, Column):
            raise NormalizationError(
                f"cannot unfold non-column output of view {view.name}"
            )
        sigma[out_col] = expr

    new_from = (
        block.from_[:position] + body.from_ + block.from_[position + 1 :]
    )

    def fix(expr):
        return substitute_expr(expr, sigma)

    return QueryBlock(
        select=tuple(
            SelectItem(fix(item.expr), item.alias) for item in block.select
        ),
        from_=new_from,
        where=tuple(a.substitute(sigma) for a in block.where) + body.where,
        group_by=tuple(sigma.get(c, c) for c in block.group_by),
        having=tuple(
            Comparison(fix(a.left), a.op, fix(a.right)) for a in block.having
        ),
        distinct=block.distinct,
    ).validate()
