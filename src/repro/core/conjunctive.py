"""Section 3: rewriting aggregation queries using *conjunctive* views.

Implements the usability conditions C1–C4 (Section 3.1), the rewriting
steps S1–S4, and the HAVING-clause extension (Section 3.3). The same code
path covers conjunctive queries (no grouping/aggregation), for which the
conditions "are also applicable" per the paper.
"""

from __future__ import annotations

from typing import Optional

from ..blocks.exprs import AggFunc, Aggregate
from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.terms import Column
from ..constraints.closure import closure_of
from ..constraints.having import normalize_having
from ..constraints.residual import find_residual
from ..mappings.column_mapping import ColumnMapping
from .common import (
    NOT_ONE_TO_ONE,
    UNSATISFIABLE,
    Reports,
    equal_output,
    in_scope,
    make_view_occurrence,
    query_namer,
    record,
    record_c2,
    record_c3,
    refuse,
    substitute_view,
)
from .result import Rewriting


def try_rewrite_conjunctive(
    query: QueryBlock,
    view: ViewDef,
    mapping: ColumnMapping,
    reports: Reports = None,
) -> Optional[Rewriting]:
    """Check conditions C1–C4 for one mapping; apply S1–S4 when they hold.

    Returns the rewriting Q', or ``None`` when the view is not usable under
    this mapping. ``query`` may have grouping/aggregation and a HAVING
    clause; ``view`` must be conjunctive.

    Without ``reports`` the first failed condition returns ``None`` at
    once. With a ``reports`` list, every condition appends its
    :class:`~repro.core.common.ConditionReport` and evaluation continues
    past failures, so the list names each obstruction; the result is the
    same.
    """
    if not view.block.is_conjunctive:
        return None
    if not in_scope(query, view, reports):
        return None
    if not mapping.is_one_to_one:
        return refuse(reports, "C1", NOT_ONE_TO_ONE)

    # Section 3.3 pre-processing: strengthen Conds(Q) from the HAVING
    # clause before checking C2-C4.
    query_n = normalize_having(query)
    closure_q = closure_of(query_n.where)
    if not closure_q.satisfiable:
        return refuse(reports, "Conds(Q)", UNSATISFIABLE)

    image = mapping.image_columns
    namer = query_namer(query_n, view.block)
    occurrence = make_view_occurrence(view, mapping, namer)

    # ------------------------------------------------------------------
    # Condition C2: SELECT / GROUP BY columns covered by the view must
    # survive its projection (up to Conds(Q)-entailed equality).
    # ------------------------------------------------------------------
    sigma: dict[Column, Column] = {}
    outputs = [
        (mapping.apply(item.expr), out_col)
        for item, out_col in zip(view.block.select, occurrence.select_columns)
        if isinstance(item.expr, Column)
    ]

    def require_output(column: Column) -> bool:
        if column not in image or column in sigma:
            return True
        out_col = equal_output(column, outputs, closure_q)
        if out_col is None:
            return False
        sigma[column] = out_col
        return True

    missing: list[Column] = []
    for column in list(query_n.col_sel()) + list(query_n.group_by):
        if not require_output(column):
            if reports is None:
                return None
            missing.append(column)
    if reports is not None:
        record_c2(reports, query_n, missing)

    # ------------------------------------------------------------------
    # Condition C4 (extended to HAVING aggregates, Section 3.3): every
    # aggregated column covered by the view needs a surviving equal copy;
    # COUNT falls back to counting any view output column (step S4).
    # ------------------------------------------------------------------
    agg_replacements: dict[Aggregate, Aggregate] = {}
    bad_aggs: list[Aggregate] = []
    for agg in query_n.all_aggregates():
        arg = agg.arg
        if not isinstance(arg, Column):
            return refuse(
                reports,
                "C4",
                lambda: f"{agg} has a compound argument; the conditions "
                "are stated for AGG(column)",
            )
        if arg not in image or require_output(arg):
            continue
        if agg.func is AggFunc.COUNT and occurrence.select_columns:
            agg_replacements[agg] = Aggregate(
                AggFunc.COUNT, occurrence.select_columns[0]
            )
        elif reports is None:
            # C4 part 1 fails for MIN/MAX/SUM/AVG; part 2 needs a
            # non-empty Sel(V).
            return None
        else:
            bad_aggs.append(agg)
    if reports is not None:
        record(
            reports,
            "C4",
            not bad_aggs,
            "all aggregated columns are recoverable",
            lambda: "cannot compute "
            + ", ".join(dict.fromkeys(str(a) for a in bad_aggs))
            + ": the aggregated column is projected out of the view",
        )

    # ------------------------------------------------------------------
    # Condition C3: Conds(Q) must factor as φ(Conds(V)) AND Conds', with
    # Conds' over non-image columns plus the view's surviving outputs.
    # ------------------------------------------------------------------
    allowed = (query_n.cols() - image) | frozenset(occurrence.select_columns)
    mapped = mapping.apply_atoms(view.block.where)
    residual = find_residual(query_n.where, mapped, allowed)
    if reports is not None:
        record_c3(reports, closure_q, mapped, residual)
    if residual is None or missing or bad_aggs:
        return None

    rewritten = substitute_view(
        query_n, mapping, occurrence, sigma, agg_replacements, residual
    ).validate()
    return Rewriting(
        query=rewritten,
        view_names=(view.name,),
        strategy="conjunctive",
        mapping_desc=mapping.describe(),
        notes=(
            f"replaced tables {[r.name for r in mapping.image_relations()]} "
            f"by view {view.name}",
        ),
    )
