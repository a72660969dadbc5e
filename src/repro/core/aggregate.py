"""Section 4: rewriting aggregation queries using *aggregation* views.

Implements condition C1 plus the modified conditions C2'-C4'
(Section 4.2), the rewriting steps S1'-S5', the HAVING extensions
(Section 4.3), the AVG decomposition (Section 4.4), and the Section 4.5
impossibility (aggregation views cannot answer conjunctive queries under
multiset semantics).

Strategy note (see DESIGN.md, "Fidelity notes"). The default strategy
recovers lost multiplicities by *weighting* with the view's COUNT column:

========================  =============================================
query aggregate            rewritten form (N = view count output)
========================  =============================================
``COUNT(A)``               ``SUM(N)``
``SUM(A)``, A ~ view col   ``SUM(N * B)``  (B a grouping output of V)
``SUM(A)``, SUM in view    ``SUM(S)``      (S the view's SUM output)
``SUM(A)``, A external     ``SUM(N * A)``
``MIN/MAX``                ``MIN/MAX`` of the obvious operand
``AVG(A)``                 SUM-form / COUNT-form (Section 4.4)
========================  =============================================

This is equivalent to the paper's auxiliary-view (``Va``) construction in
the regime where that construction is sound, and correct in general. The
literal ``Va`` construction is available via
:func:`repro.core.paper_va.try_rewrite_paper_va`.
"""

from __future__ import annotations

from typing import Optional

from ..blocks.exprs import AggFunc, Aggregate, Expr, div, mul
from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.terms import Column, Comparison
from ..constraints.closure import Closure, closure_of
from ..constraints.having import normalize_having
from ..constraints.residual import find_residual
from ..mappings.column_mapping import ColumnMapping
from .common import (
    NOT_ONE_TO_ONE,
    UNSATISFIABLE,
    Reports,
    ViewOccurrence,
    describe_columns,
    equal_output,
    in_scope,
    make_view_occurrence,
    query_namer,
    record,
    refuse,
    substitute_view,
)
from .result import Rewriting


class _ViewShape:
    """Indexed access to an aggregation view's SELECT structure."""

    def __init__(self, view: ViewDef, mapping: ColumnMapping, occ: ViewOccurrence):
        #: non-aggregation items: view column -> Q' output column
        self.column_outputs: dict[Column, Column] = {}
        #: aggregation items: (func, view column) -> Q' output column
        self.agg_outputs: dict[tuple[AggFunc, Column], Column] = {}
        self.count_output: Optional[Column] = None
        for pos, item in enumerate(view.block.select):
            expr = item.expr
            out_col = occ.select_columns[pos]
            if isinstance(expr, Column):
                self.column_outputs.setdefault(expr, out_col)
            elif isinstance(expr, Aggregate) and isinstance(expr.arg, Column):
                self.agg_outputs.setdefault((expr.func, expr.arg), out_col)
                if expr.func is AggFunc.COUNT and self.count_output is None:
                    self.count_output = out_col

    def agg_output_for(
        self, func: AggFunc, preimages, closure_v: Closure
    ) -> Optional[Column]:
        """An output ``func(B)`` with B equal (under Conds(V)) to a
        preimage of the query column."""
        for (item_func, item_arg), out_col in self.agg_outputs.items():
            if item_func is not func:
                continue
            for pre in preimages:
                if closure_v.equal(item_arg, pre):
                    return out_col
        return None


_C3_SELECTIVE = (
    "the view is more selective than the query (Conds(Q) does not imply "
    "φ(Conds(V)))"
)
_C3_RESIDUAL = (
    "a query condition constrains an aggregated or projected-out view "
    "column (Example 4.4's obstruction)"
)
# Why C4' fails for one aggregate; each is appended to ``str(aggregate)``.
_COMPOUND = " has a compound argument"
_NEEDS_COUNT = (
    " needs the view to expose a COUNT output to recover multiplicities "
    "(C4' part 1(b)/2)"
)
_NO_OUTPUT = ": no matching aggregate or grouping output in the view"
_SCALAR_COUNT = (
    ": COUNT over a GROUP-BY-less query cannot be rewritten (NULL-vs-0 on "
    "empty input)"
)
_STRICT_COUNT = (
    ": the literal reading of C4' part 1(b) (conditions=\"strict\") wants "
    "a COUNT output in the view"
)


def try_rewrite_aggregation(
    query: QueryBlock,
    view: ViewDef,
    mapping: ColumnMapping,
    conditions: str = "paper",
    reports: Reports = None,
) -> Optional[Rewriting]:
    """Check C1, C2'-C4' for one mapping; apply S1'-S5' when they hold.

    ``conditions="paper"`` (default) requires a COUNT output in the view
    exactly where steps S4'/S5' consume one — the reading of C4' part 1(b)
    consistent with the paper's Example 1.1. ``conditions="strict"``
    enforces the literal transcription (a COUNT output whenever the query
    computes SUM/COUNT/AVG), which rejects Example 1.1; see DESIGN.md
    fidelity note 2.

    ``reports`` is the optional sink of
    :func:`repro.core.conjunctive.try_rewrite_conjunctive`: absent, the
    first failed condition returns ``None`` at once; present, every
    condition leaves its line and evaluation goes on.
    """
    if conditions not in ("paper", "strict"):
        raise ValueError(f"unknown conditions mode {conditions!r}")
    if not view.block.is_aggregation:
        return None
    if not in_scope(query, view, reports):
        return None
    if not mapping.is_one_to_one:
        return refuse(reports, "C1", NOT_ONE_TO_ONE)
    if query.is_conjunctive:
        return refuse(
            reports,
            "4.5",
            "an aggregation view cannot answer a conjunctive query under "
            "multiset semantics (grouping loses multiplicities)",
        )

    query_n = normalize_having(query)
    view_n = view.block
    if view_n.having:
        view_n = normalize_having(view_n)

    # A GROUP-BY-less aggregation view emits exactly one row even when
    # its base relations are empty (SQL'92 scalar-aggregate semantics),
    # while the query core it replaces would be empty. Replacing tables
    # by such a view is sound only when the view covers the *whole*
    # query and the query is itself GROUP-BY-less: then both sides emit
    # exactly one row whose aggregates agree (COUNT is separately
    # refused below). Found by the SQLite cross-oracle, fuzz seed 4916.
    scalar_ok = bool(view_n.group_by) or (
        not query_n.group_by
        and len(mapping.image_table_indexes) == len(query_n.from_)
    )
    if not scalar_ok and reports is None:
        return None
    if reports is not None and not view_n.group_by:
        record(
            reports,
            "scalar view",
            scalar_ok,
            "the GROUP-BY-less view covers the whole GROUP-BY-less query, so "
            "both emit exactly one row",
            "a GROUP-BY-less view emits one row even on empty input, where "
            "the tables it replaces give none; it is usable only when it "
            "covers every table of a GROUP-BY-less query",
        )

    closure_q = closure_of(query_n.where)
    if not closure_q.satisfiable:
        return refuse(reports, "Conds(Q)", UNSATISFIABLE)
    closure_v = closure_of(view_n.where)

    image = mapping.image_columns
    namer = query_namer(query_n, view_n)
    occurrence = make_view_occurrence(view, mapping, namer)
    shape = _ViewShape(view, mapping, occurrence)

    # ------------------------------------------------------------------
    # Condition C2': grouping columns covered by the view must appear in
    # ColSel(V) (up to Conds(Q)-entailed equality).
    # ------------------------------------------------------------------
    sigma: dict[Column, Column] = {}
    missing: list[Column] = []
    for column in list(query_n.group_by) + list(query_n.col_sel()):
        if column not in image or column in sigma:
            continue
        out_col = _equal_column_output(column, shape, mapping, closure_q)
        if out_col is not None:
            sigma[column] = out_col
        elif reports is None:
            return None
        else:
            missing.append(column)
    if reports is not None:
        record(
            reports,
            "C2'",
            not missing,
            "every grouping column appears among the view's non-aggregated "
            "outputs",
            lambda: "grouping column(s) "
            + describe_columns(query_n, missing)
            + " are not in ColSel(V) — the view's groups are too coarse",
        )

    # ------------------------------------------------------------------
    # Condition C3': Conds(Q) must factor as φ(Conds(V)) AND Conds', with
    # Conds' over non-image columns plus φ(ColSel(V)) only — aggregated
    # view outputs admit no further constraints (Example 4.4).
    # ------------------------------------------------------------------
    colsel_outputs = frozenset(shape.column_outputs.values())
    allowed = (query_n.cols() - image) | colsel_outputs
    mapped = mapping.apply_atoms(view_n.where)
    residual = find_residual(query_n.where, mapped, allowed)
    if residual is None and reports is None:
        return None
    if reports is not None:
        record(
            reports,
            "C3'",
            residual is not None,
            "residual conditions fit on grouping outputs",
            lambda: _C3_RESIDUAL
            if closure_q.entails_all(mapped)
            else _C3_SELECTIVE,
        )

    # ------------------------------------------------------------------
    # Condition C4' (+ HAVING extension): compute a Q'-level expression
    # for every aggregate of SELECT and HAVING.
    # ------------------------------------------------------------------
    needs_count = False
    agg_replacements: dict[Aggregate, Expr] = {}
    bad: list[str] = []
    for agg in query_n.all_aggregates():
        if agg in agg_replacements:
            continue
        why = None
        if not isinstance(agg.arg, Column):
            why = _COMPOUND
        else:
            replacement, uses_count = _rewrite_aggregate(
                agg, shape, mapping, closure_q, closure_v, image
            )
            if replacement is None:
                counted = uses_count and shape.count_output is None
                why = _NEEDS_COUNT if counted else _NO_OUTPUT
            elif agg.func is AggFunc.COUNT and not query_n.group_by:
                # COUNT becomes SUM(N), which is NULL (not 0) over the
                # single empty group a GROUP-BY-less query still emits on
                # an empty database. Refusing keeps the rewriting sound.
                why = _SCALAR_COUNT
            elif (
                conditions == "strict"
                and agg.func in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)
                and shape.count_output is None
            ):
                # C4' part 1(b) read literally: a COUNT output for *any*
                # duplicate-sensitive aggregate. The paper's own Example
                # 1.1 violates this reading (DESIGN.md fidelity note 2),
                # so the default ("paper") requires the COUNT output
                # exactly where steps S4'/S5' consume it.
                why = _STRICT_COUNT
        if why is None:
            needs_count = needs_count or uses_count
            agg_replacements[agg] = replacement
        elif reports is None:
            return None
        else:
            bad.append(f"{agg}{why}")
    if reports is not None:
        record(
            reports,
            "C4'",
            not bad,
            "every query aggregate is computable from the view's outputs",
            lambda: "; ".join(dict.fromkeys(bad)),
        )

    # ------------------------------------------------------------------
    # Section 4.3: a HAVING clause in the view may eliminate groups that Q
    # needs. Sound regime: exact group alignment, the view covering the
    # whole query, and GConds(Q) entailing φ(GConds(V)).
    # ------------------------------------------------------------------
    having_ok = not view_n.having or _check_view_having(
        query_n, view_n, mapping, closure_q, image
    )
    if reports is not None and view_n.having:
        record(
            reports,
            "4.3",
            having_ok,
            "the view's HAVING clause is entailed with exactly aligned groups",
            "the view's HAVING clause may eliminate groups the query still "
            "needs (Section 4.3)",
        )
    if not (scalar_ok and having_ok) or missing or residual is None or bad:
        return None

    rewritten = substitute_view(
        query_n, mapping, occurrence, sigma, agg_replacements, residual
    ).validate()
    notes = [
        f"replaced tables {[r.name for r in mapping.image_relations()]} "
        f"by aggregation view {view.name}",
    ]
    if needs_count:
        notes.append(
            "recovered lost multiplicities from the view's COUNT output"
        )
    return Rewriting(
        query=rewritten,
        view_names=(view.name,),
        strategy="aggregate-weighted",
        mapping_desc=mapping.describe(),
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _equal_column_output(
    column: Column,
    shape: _ViewShape,
    mapping: ColumnMapping,
    closure_q: Closure,
) -> Optional[Column]:
    """C2' search: a ColSel(V) output with ``Conds(Q) ⊨ column = φ(B)``."""
    outputs = (
        (mapping.apply(view_col), out_col)
        for view_col, out_col in shape.column_outputs.items()
    )
    return equal_output(column, outputs, closure_q)


def _rewrite_aggregate(
    agg: Aggregate,
    shape: _ViewShape,
    mapping: ColumnMapping,
    closure_q: Closure,
    closure_v: Closure,
    image: frozenset[Column],
) -> tuple[Optional[Expr], bool]:
    """The C4' case analysis; returns ``(replacement, uses_count)``.

    The replacement is a group-level expression over Q' columns; ``None``
    means condition C4' fails for this aggregate.
    """
    arg: Column = agg.arg  # type: ignore[assignment]
    func = agg.func
    n_col = shape.count_output

    if arg not in image:
        # C4' part 2: the aggregated column comes from a non-image table.
        if func in (AggFunc.MIN, AggFunc.MAX):
            return Aggregate(func, arg), False
        if func is AggFunc.SUM:
            if n_col is None:
                return None, True
            return Aggregate(AggFunc.SUM, mul(n_col, arg)), True
        if func is AggFunc.COUNT:
            if n_col is None:
                return None, True
            return Aggregate(AggFunc.SUM, n_col), True
        # AVG = weighted sum / total multiplicity.
        if n_col is None:
            return None, True
        return (
            div(
                Aggregate(AggFunc.SUM, mul(n_col, arg)),
                Aggregate(AggFunc.SUM, n_col),
            ),
            True,
        )

    # C4' part 1: the aggregated column is covered by the view.
    preimages = [
        v for v, q in mapping.column_map.items()
        if closure_q.equal(arg, q)
    ]
    direct = shape.agg_output_for(func, preimages, closure_v)
    column_out = None
    for view_col, out_col in shape.column_outputs.items():
        if any(closure_v.equal(view_col, p) for p in preimages) or \
                closure_q.equal(arg, mapping.apply(view_col)):
            column_out = out_col
            break

    if func in (AggFunc.MIN, AggFunc.MAX):
        if direct is not None:
            # S4' 1(a): min-of-mins / max-of-maxes over coalesced groups.
            return Aggregate(func, direct), False
        if column_out is not None:
            # S4' 1(b) for MIN/MAX: the column survives; aggregate it.
            return Aggregate(func, column_out), False
        return None, False

    if func is AggFunc.COUNT:
        # S4' part 2: COUNT becomes the sum of subgroup counts.
        if n_col is None:
            return None, True
        return Aggregate(AggFunc.SUM, n_col), True

    if func is AggFunc.SUM:
        return _sum_expression(shape, preimages, closure_v, column_out, n_col)

    # AVG (Section 4.4): SUM-form / COUNT-form, both exact.
    if n_col is None:
        return None, True
    sum_expr, _uses = _sum_expression(
        shape, preimages, closure_v, column_out, n_col
    )
    if sum_expr is None:
        return None, True
    return div(sum_expr, Aggregate(AggFunc.SUM, n_col)), True


def _sum_expression(
    shape: _ViewShape,
    preimages,
    closure_v: Closure,
    column_out: Optional[Column],
    n_col: Optional[Column],
) -> tuple[Optional[Expr], bool]:
    """SUM of an image column: direct SUM output, N-weighted grouping
    column, or AVG * COUNT (all per Section 4.4's SUM/COUNT/AVG triangle).
    """
    direct = shape.agg_output_for(AggFunc.SUM, preimages, closure_v)
    if direct is not None:
        return Aggregate(AggFunc.SUM, direct), False
    if column_out is not None and n_col is not None:
        return Aggregate(AggFunc.SUM, mul(n_col, column_out)), True
    avg_out = shape.agg_output_for(AggFunc.AVG, preimages, closure_v)
    if avg_out is not None and n_col is not None:
        return Aggregate(AggFunc.SUM, mul(avg_out, n_col)), True
    return None, n_col is None


def _check_view_having(
    query_n: QueryBlock,
    view_n: QueryBlock,
    mapping: ColumnMapping,
    closure_q: Closure,
    image: frozenset[Column],
) -> bool:
    """Section 4.3 soundness regime for a view with a HAVING clause.

    Requires (i) the view covers every query table, (ii) every view
    grouping column is fixed within each query group (no coalescing of
    view groups, so no eliminated group is ever needed), and (iii)
    GConds(Q) entails φ(GConds(V)) with aggregates treated as opaque
    terms after canonicalizing their arguments.
    """
    if len(mapping.image_table_indexes) != len(query_n.from_):
        return False

    group_cols = set(query_n.group_by)
    for view_col in view_n.group_by:
        q_col = mapping.apply(view_col)
        if not any(closure_q.equal(q_col, g) for g in group_cols):
            return False

    def canonical(expr: Expr) -> Expr:
        if isinstance(expr, Aggregate) and isinstance(expr.arg, Column):
            reps = sorted(
                (
                    t
                    for t in closure_q.equality_class(expr.arg)
                    if isinstance(t, Column)
                ),
                key=str,
            )
            return Aggregate(expr.func, reps[0] if reps else expr.arg)
        return expr

    def canonical_atom(atom: Comparison) -> Comparison:
        return Comparison(canonical(atom.left), atom.op, canonical(atom.right))

    premises = [canonical_atom(a) for a in query_n.having]
    premises += list(query_n.where)
    goal = [
        canonical_atom(mapping.apply_atom(a)) for a in view_n.having
    ]
    return Closure(premises).entails_all(goal)
