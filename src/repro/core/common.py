"""Shared helpers for the rewriting algorithms of Sections 3 and 4."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ..blocks.exprs import Aggregate, Arith, Expr
from ..blocks.naming import FreshNames
from ..blocks.query_block import QueryBlock, Relation, SelectItem, ViewDef
from ..blocks.terms import Column, Comparison
from ..constraints.closure import Closure
from ..mappings.column_mapping import ColumnMapping


def view_is_rewritable(view: ViewDef, allow_distinct: bool = False) -> bool:
    """Views usable by the paper's algorithms: SELECT items are columns or
    ``AGG(column)``. Without ``allow_distinct``, DISTINCT views are
    rejected — they collapse duplicates a multiset query may need; the
    Section 5.2 set-semantics path passes ``allow_distinct=True``."""
    if view.block.distinct and not allow_distinct:
        return False
    for item in view.block.select:
        expr = item.expr
        if isinstance(expr, Column):
            continue
        if isinstance(expr, Aggregate) and isinstance(expr.arg, Column):
            continue
        return False
    return True


@dataclass(frozen=True)
class ViewOccurrence:
    """The paper's ``φ(V)``: one FROM occurrence of a view inside Q'.

    ``relation`` is the FROM item; ``select_columns[i]`` is the Q' column
    holding the view's i-th SELECT item. Non-aggregation items adopt the
    query column name ``φ(B)`` (so residual conditions and SELECT items of
    Q referring to ``φ(B)`` automatically read the view's output);
    aggregation items receive fresh names.
    """

    relation: Relation
    select_columns: tuple[Column, ...]


def make_view_occurrence(
    view: ViewDef,
    mapping: ColumnMapping,
    namer: FreshNames,
) -> ViewOccurrence:
    """Build ``φ(V)`` for one use of ``view`` under ``mapping``."""
    columns: list[Column] = []
    seen: set[Column] = set()
    for position, item in enumerate(view.block.select):
        expr = item.expr
        if isinstance(expr, Column):
            image = mapping.apply(expr)
            if image in seen:
                # Two SELECT items map onto one query column (possible with
                # many-to-1 mappings); later items get fresh names, with an
                # equality predicate added by the caller.
                image = namer.column(view.output_names[position])
            columns.append(image)
            seen.add(image)
        else:
            columns.append(namer.column(view.output_names[position]))
    relation = Relation(
        name=view.name,
        columns=tuple(columns),
        base_names=tuple(view.output_names),
    )
    return ViewOccurrence(relation, tuple(columns))


def query_namer(query: QueryBlock, *more_blocks: QueryBlock) -> FreshNames:
    """A fresh-name allocator avoiding every column of the given blocks."""
    taken = [c.name for c in query.cols()]
    for block in more_blocks:
        taken += [c.name for c in block.cols()]
    return FreshNames(taken)


def equal_output(
    column: Column,
    outputs: Iterable[tuple[Column, Column]],
    closure_q: Closure,
) -> Optional[Column]:
    """The search behind C2/C2' and C4 part 1: a surviving view output
    ``B`` with ``Conds(Q) ⊨ column = φ(B)``.

    ``outputs`` pairs each ``φ(B)`` with the Q' column that carries it.
    The output whose image *is* ``column`` is the canonical choice; failing
    that, the first Conds(Q)-equal one.
    """
    best: Optional[Column] = None
    for image, out_col in outputs:
        if closure_q.equal(column, image):
            if image == column:
                return out_col
            if best is None:
                best = out_col
    return best


def select_is_plain(query: QueryBlock) -> bool:
    """True when every SELECT item is a column or a single aggregate.

    The usability conditions are stated for this shape; arithmetic select
    expressions (which rewritings *produce*) are not accepted as input.
    """
    return all(
        isinstance(item.expr, (Column, Aggregate)) for item in query.select
    )


class ConditionReport:
    """One usability condition's outcome under one mapping.

    The rewriting functions append these to their optional ``reports``
    sink. ``detail`` may be handed over as a zero-argument callable: it
    is rendered on first read, so a consumer that only looks at ``ok``
    never builds the text.
    """

    __slots__ = ("condition", "ok", "_detail")

    def __init__(
        self, condition: str, ok: bool, detail: Union[str, Callable[[], str]]
    ):
        self.condition = condition
        self.ok = ok
        self._detail = detail

    @property
    def detail(self) -> str:
        if callable(self._detail):
            self._detail = self._detail()
        return self._detail

    def __str__(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.condition}: {self.detail}"

    __repr__ = __str__


Reports = Optional[list[ConditionReport]]

NOT_ONE_TO_ONE = (
    "the mapping sends two view tables onto one query table; multiset "
    "semantics needs a 1-1 mapping (Definition 2.1)"
)
UNSATISFIABLE = (
    "Conds(Q) is unsatisfiable: the query is empty on every database, "
    "and no rewriting is attempted"
)


def refuse(reports: Reports, condition: str, detail) -> None:
    """A guard that ends the evaluation: leave its FAIL line in the sink
    (when there is one) and hand back the ``None`` the caller returns."""
    if reports is not None:
        reports.append(ConditionReport(condition, False, detail))
    return None


def in_scope(
    query: QueryBlock,
    view: ViewDef,
    reports: Reports,
    allow_distinct: bool = False,
) -> bool:
    """Is (query, view) in the input class the conditions are stated for?"""
    if not view_is_rewritable(view, allow_distinct):
        reason = (
            "the view is outside the rewriting class (DISTINCT, or a "
            "SELECT item that is neither a column nor AGG(column))"
        )
    elif not select_is_plain(query):
        reason = "the query's SELECT items must be columns or single aggregates"
    else:
        return True
    refuse(reports, "scope", reason)
    return False


def record(
    reports: list[ConditionReport], condition: str, ok: bool, passed, failed
) -> None:
    """Append one condition's line: ``passed`` when it holds, else
    ``failed`` (either may be a callable, rendered on first read)."""
    reports.append(ConditionReport(condition, ok, passed if ok else failed))


def describe_columns(block: QueryBlock, columns: Sequence[Column]) -> str:
    """``Table.column, ...`` for report details (duplicates dropped)."""
    names = []
    for column in columns:
        rel = block.relation_of(column)
        names.append(f"{rel.name}.{rel.base_name_of(column)}")
    return ", ".join(dict.fromkeys(names))


def record_c2(
    reports: list[ConditionReport], query: QueryBlock, missing: Sequence[Column]
) -> None:
    """C2's line, as worded for both the 1-1 and the many-to-1 check."""
    record(
        reports,
        "C2",
        not missing,
        "every needed SELECT/GROUP BY column survives the view's projection",
        lambda: "the view projects out "
        + describe_columns(query, missing)
        + " (no Conds(Q)-equal copy in Sel(V))",
    )


def record_c3(
    reports: list[ConditionReport],
    closure_q: Closure,
    mapped: Sequence[Comparison],
    residual: Optional[Sequence[Comparison]],
) -> None:
    """C3's line; a failure says which half failed: Conds(Q) entailing
    ``mapped`` = φ(Conds(V)), or the residual fitting on what survives."""

    def failed() -> str:
        unimplied = [str(a) for a in mapped if not closure_q.entails(a)]
        if not unimplied:
            return (
                "some query condition constrains a column the view "
                "projects out, and no equal surviving column exists"
            )
        return (
            "the view is more selective than the query: Conds(Q) does "
            "not imply " + ", ".join(unimplied)
            + " — the view discards tuples the query needs"
        )

    record(
        reports,
        "C3",
        residual is not None,
        "Conds(Q) factors as φ(Conds(V)) AND Conds' over surviving columns",
        failed,
    )


def substitute_view(
    query: QueryBlock,
    mapping: ColumnMapping,
    occurrence: ViewOccurrence,
    sigma: Mapping[Column, Column],
    agg_replacements: Mapping[Aggregate, Expr],
    where: Sequence[Comparison],
) -> QueryBlock:
    """Steps S1-S4 / S1'-S5': assemble Q' once the conditions hold.

    ``φ(V)`` takes the place of the first image table and the other image
    tables are dropped; ``where`` is the residual ``Conds'``; ``sigma``
    renames covered columns to view outputs and ``agg_replacements``
    gives the Q'-level form of each aggregate, throughout SELECT, GROUP
    BY and HAVING. The caller validates the block.
    """
    replaced = mapping.image_table_indexes
    first = min(replaced)
    new_from = tuple(
        occurrence.relation if idx == first else rel
        for idx, rel in enumerate(query.from_)
        if idx == first or idx not in replaced
    )

    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, Aggregate):
            if expr in agg_replacements:
                return agg_replacements[expr]
            return Aggregate(expr.func, rewrite_expr(expr.arg))
        if isinstance(expr, Column):
            return sigma.get(expr, expr)
        if isinstance(expr, Arith):
            return Arith(
                expr.op, rewrite_expr(expr.left), rewrite_expr(expr.right)
            )
        return expr

    return QueryBlock(
        select=tuple(
            SelectItem(rewrite_expr(item.expr), item.alias)
            for item in query.select
        ),
        from_=new_from,
        where=tuple(where),
        # Closure-equal grouping columns can collapse onto one view
        # output; grouping by it once is equivalent.
        group_by=tuple(dict.fromkeys(sigma.get(c, c) for c in query.group_by)),
        having=tuple(
            Comparison(rewrite_expr(a.left), a.op, rewrite_expr(a.right))
            for a in query.having
        ),
        distinct=query.distinct,
    )
