"""Cohen & Nutt complete rewriting for count/sum/max aggregate queries.

The paper's C1–C4 usability conditions reject many sound rewritings.
Cohen & Nutt ("Algorithms for Rewriting Aggregate Queries Using Views",
arXiv cs/0011024) decide rewritability the other way around: build a
*candidate* that reads the view, unfold the view occurrence back into
base tables, and check that the unfolded query is equivalent to the
original under the aggregate's semantics — bag equivalence for the
duplicate-sensitive aggregates (COUNT/SUM/AVG), set equivalence for the
duplicate-insensitive ones (MIN/MAX). This module implements the two
regimes that extend the C1–C4 result set:

direct view reads (``cohen-nutt-direct``)
    An aggregation view whose body covers the whole query 1-1: when the
    conditions factor (``Conds(Q) ≡ φ(Conds(V)) ∧ Conds'`` with the
    residual over the view's group outputs), the groups align both ways
    under ``Conds(Q)``'s closure, and every SELECT/HAVING aggregate of Q
    matches an output of V, then Q is answered by *selecting view rows*
    — no re-aggregation at all. Symbolically unfolding the candidate
    gives back a query whose core is condition-equivalent to Q with
    identical grouping, which is exactly bag equivalence, so the read is
    sound for every aggregate, including the shapes C1–C4 refuses:
    scalar COUNT views, AVG views without a COUNT output, and views
    whose HAVING is vacuously true on non-empty groups.

many-to-one MIN/MAX reads (``cohen-nutt-maxmin``)
    A conjunctive view used through a *many-to-one* mapping (e.g. a
    self-join view collapsed onto one query occurrence) changes tuple
    multiplicities, which C1 forbids. MIN and MAX cannot see
    multiplicities, so set equivalence suffices: the candidate is built
    like the Section 5.2 set-semantics substitution, its view occurrence
    is unfolded into base tables, and the unfolded query is checked
    set-equivalent to Q by a two-way homomorphism test (closure-entailed
    atoms, distinguished columns pinned through the construction).

Both regimes *verify* rather than trust the construction: a candidate
only becomes a :class:`~repro.core.result.Rewriting` after its unfolding
check passes. The strategy's full result set is the C1–C4 set plus these
extras (``repro.core.rewriter`` performs the canonical-key union), so
C1–C4 ⊆ Cohen–Nutt dominance holds by construction and is re-asserted
scenario-by-scenario by the differential oracle.

Scope notes. COUNT outputs are matched argument-exactly first, then any
COUNT output is accepted: the engine's language is the paper's NULL-free
model where every ``COUNT(B)`` equals the group size (the oracle vacates
rewriting checks on NULL-carrying instances for the same reason).
DISTINCT on either side is refused — it changes multiplicities for the
duplicate-sensitive aggregates and is owned by the set-semantics path.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..blocks.exprs import Aggregate, AggFunc, columns_in
from ..blocks.query_block import QueryBlock, Relation, SelectItem, ViewDef
from ..blocks.terms import Column, Comparison, Constant, Op
from ..blocks.unfold import unfold_occurrence
from ..constraints.closure import Closure, closure_of
from ..constraints.residual import find_residual
from ..errors import NormalizationError
from ..mappings.enumerate_mappings import enumerate_mappings
from ..memo import MISSING
from ..obs.budget import BudgetMeter, ensure_meter
from ..core.canonical import BlockSet
from ..core.common import ViewOccurrence, make_view_occurrence, query_namer
from ..core.containment import homomorphisms
from ..core.result import Rewriting

#: Provenance tags carried in ``Rewriting.strategy``.
DIRECT = "cohen-nutt-direct"
MAXMIN = "cohen-nutt-maxmin"

#: The planner memo family holding this strategy's per-query answers.
MEMO_FAMILY = "cohen_nutt"


def cohen_nutt_rewritings(
    query: QueryBlock,
    views: Iterable[ViewDef],
    planner=None,
    budget=None,
) -> list[Rewriting]:
    """The Cohen–Nutt extras for ``query``: rewritings beyond C1–C4.

    Results are deduplicated among themselves by canonical key; callers
    union them with the C1–C4 set (deduplicating again). ``planner``
    optionally memoizes the whole answer per query block in its
    ``cohen_nutt`` memo family — the entries ride the same
    export/import channel as the substitution memo, so serving
    warm-starts cover this strategy too. ``budget`` bounds the mapping
    enumeration and candidate count (the anytime contract: a tripped
    budget yields a sound prefix, never a wrong rewriting).
    """
    meter = None if budget is None else ensure_meter(budget)
    if planner is not None:
        cached = planner.lookup(MEMO_FAMILY, query)
        if cached is not MISSING:
            return list(cached)
    closure_q = closure_of(query.where)
    out: list[Rewriting] = []
    seen = BlockSet()
    for view in views:
        if meter is not None and not meter.ok():
            break
        for rewriting in _view_rewritings(query, view, closure_q, meter):
            if meter is not None and not meter.charge_candidate():
                break
            if seen.add(rewriting.query):
                out.append(rewriting)
    if planner is not None and (meter is None or not meter.exhausted):
        # Budget-tripped enumerations are partial; caching one would
        # poison later unbudgeted searches (same rule as the planner's
        # substitution memo).
        planner.memo(MEMO_FAMILY).put(query, tuple(out))
    return out


def _view_rewritings(
    query: QueryBlock,
    view: ViewDef,
    closure_q: Closure,
    meter: Optional[BudgetMeter],
) -> Iterable[Rewriting]:
    if query.distinct or not query.is_aggregation:
        return
    if view.block.distinct:
        return
    yield from _direct_rewritings(query, view, closure_q, meter)
    yield from _maxmin_rewritings(query, view, closure_q, meter)


# ----------------------------------------------------------------------
# Regime 1: direct reads of an aggregation view (no re-aggregation)
# ----------------------------------------------------------------------


def _direct_rewritings(
    query: QueryBlock,
    view: ViewDef,
    closure_q: Closure,
    meter: Optional[BudgetMeter],
) -> Iterable[Rewriting]:
    body = view.block
    if not body.is_aggregation:
        return
    if body.having:
        # A vacuous HAVING (true on every non-empty group) can be
        # dropped — but only when Q is grouped: a *scalar* view's single
        # group may be empty (the one-row-even-when-empty rule), and
        # then HAVING COUNT > 0 erases the row Q still returns.
        if not query.group_by or not body.group_by:
            return
        if not all(_vacuous_having_atom(atom) for atom in body.having):
            return
    for mapping in enumerate_mappings(body, query, meter=meter):
        if len(mapping.table_pairs) != len(query.from_):
            continue  # must cover the whole FROM clause of Q
        rewriting = _direct_from_mapping(query, view, mapping, closure_q)
        if rewriting is not None:
            yield rewriting


def _direct_from_mapping(
    query: QueryBlock,
    view: ViewDef,
    mapping,
    closure_q: Closure,
) -> Optional[Rewriting]:
    body = view.block
    # Groups must align in both directions under Conds(Q): V's grouping
    # neither splits a Q group (finer) nor merges two (coarser).
    v_groups = [mapping.apply(g) for g in body.group_by]
    if not _groups_align(query.group_by, v_groups, closure_q):
        return None

    # Conds(Q) ≡ φ(Conds(V)) ∧ residual, residual over the view's group
    # outputs only — it filters whole groups, never rows within one.
    mapped_conds = mapping.apply_atoms(body.where)
    allowed = [
        mapping.apply(item.expr)
        for item in body.select
        if isinstance(item.expr, Column)
    ]
    residual = find_residual(query.where, mapped_conds, allowed)
    if residual is None:
        return None

    namer = query_namer(query, body)
    occurrence = make_view_occurrence(view, mapping, namer)
    # The occurrence adopts the image name φ(B) for each column output
    # (first occurrence wins), so the residual — written over those very
    # images — already reads the view's outputs verbatim.

    output_names = query.output_names()
    select: list[SelectItem] = []
    for i, item in enumerate(query.select):
        translated = _translate_group_expr(
            item.expr, view, mapping, occurrence, closure_q
        )
        if translated is None:
            return None
        select.append(SelectItem(translated, alias=output_names[i]))

    having_atoms: list[Comparison] = []
    for atom in query.having:
        left = _translate_group_expr(
            atom.left, view, mapping, occurrence, closure_q
        )
        right = _translate_group_expr(
            atom.right, view, mapping, occurrence, closure_q
        )
        if left is None or right is None:
            return None
        having_atoms.append(Comparison(left, atom.op, right))

    where = tuple(residual) + tuple(having_atoms)
    try:
        rewritten = QueryBlock(
            select=tuple(select),
            from_=(occurrence.relation,),
            where=where,
        ).validate()
    except NormalizationError:
        return None
    return Rewriting(
        query=rewritten,
        view_names=(view.name,),
        strategy=DIRECT,
        mapping_desc=mapping.describe(),
        notes=("unfolding-equivalent direct read (Cohen–Nutt)",),
    )


def _groups_align(
    q_groups: Iterable[Column],
    v_group_images: Iterable[Column],
    closure_q: Closure,
) -> bool:
    q_groups = list(q_groups)
    v_group_images = list(v_group_images)
    for q_col in q_groups:
        if not any(closure_q.equal(q_col, v) for v in v_group_images):
            return False
    for v_col in v_group_images:
        if not any(closure_q.equal(v_col, q) for q in q_groups):
            return False
    return True


def _translate_group_expr(
    expr,
    view: ViewDef,
    mapping,
    occurrence: ViewOccurrence,
    closure_q: Closure,
) -> Optional[object]:
    """A Q SELECT/HAVING side as one Q' term over the view's outputs."""
    if isinstance(expr, Constant):
        return expr
    if isinstance(expr, Column):
        best = None
        for position, item in enumerate(view.block.select):
            if not isinstance(item.expr, Column):
                continue
            image = mapping.apply(item.expr)
            if image == expr:
                return occurrence.select_columns[position]
            if best is None and closure_q.equal(expr, image):
                best = occurrence.select_columns[position]
        return best
    if isinstance(expr, Aggregate):
        fallback = None
        for position, item in enumerate(view.block.select):
            candidate = item.expr
            if not isinstance(candidate, Aggregate):
                continue
            if candidate.func is not expr.func:
                continue
            if _agg_args_match(expr.arg, candidate.arg, mapping, closure_q):
                return occurrence.select_columns[position]
            if fallback is None and expr.func is AggFunc.COUNT:
                # NULL-free model: every COUNT output is the group size.
                fallback = occurrence.select_columns[position]
        return fallback
    return None  # Arith sides are outside the accepted input language


def _agg_args_match(q_arg, v_arg, mapping, closure_q: Closure) -> bool:
    if isinstance(q_arg, Column) and isinstance(v_arg, Column):
        return closure_q.equal(q_arg, mapping.apply(v_arg))
    return mapping.apply_expr(v_arg) == q_arg


def _vacuous_having_atom(atom: Comparison) -> bool:
    """True when the atom holds on every non-empty group.

    Recognized shape: ``COUNT(B) op c`` (either orientation) where the
    comparison is implied by ``COUNT(B) >= 1`` — the weakest fact true
    of any group that exists.
    """
    if isinstance(atom.left, Aggregate):
        agg, op, other = atom.left, atom.op, atom.right
    elif isinstance(atom.right, Aggregate):
        agg, op, other = atom.right, atom.op.flipped, atom.left
    else:
        return False
    if agg.func is not AggFunc.COUNT or not isinstance(other, Constant):
        return False
    if not other.is_numeric:
        return False
    value = other.value
    if op is Op.GT or op is Op.NE:
        return value < 1
    if op is Op.GE:
        return value <= 1
    return False


# ----------------------------------------------------------------------
# Regime 2: MIN/MAX through many-to-one conjunctive-view mappings
# ----------------------------------------------------------------------


def _maxmin_rewritings(
    query: QueryBlock,
    view: ViewDef,
    closure_q: Closure,
    meter: Optional[BudgetMeter],
) -> Iterable[Rewriting]:
    aggregates = query.all_aggregates()
    if not aggregates or any(
        agg.func not in (AggFunc.MIN, AggFunc.MAX) for agg in aggregates
    ):
        return
    body = view.block
    if not body.is_conjunctive:
        return
    if any(not isinstance(item.expr, Column) for item in body.select):
        return
    for mapping in enumerate_mappings(
        body, query, many_to_one=True, meter=meter
    ):
        if mapping.is_one_to_one:
            continue  # the 1-1 regime belongs to the C1–C4 search
        rewriting = _maxmin_from_mapping(query, view, mapping, meter)
        if rewriting is not None:
            yield rewriting


def _maxmin_from_mapping(
    query: QueryBlock,
    view: ViewDef,
    mapping,
    meter: Optional[BudgetMeter],
) -> Optional[Rewriting]:
    body = view.block
    image = mapping.image_columns
    namer = query_namer(query, body)
    occurrence = make_view_occurrence(view, mapping, namer)

    # The first output per image column keeps the image name (that is
    # make_view_occurrence's contract); later outputs onto the same
    # image received fresh names and owe an equality predicate.
    exported: set[Column] = set()
    collision_atoms: list[Comparison] = []
    for position, item in enumerate(body.select):
        occ_col = occurrence.select_columns[position]
        image_col = mapping.apply(item.expr)
        if image_col == occ_col and image_col not in exported:
            exported.add(image_col)
        else:
            collision_atoms.append(Comparison(image_col, Op.EQ, occ_col))

    # Every image column Q still mentions outside WHERE must survive as
    # a view output.
    used = set(query.group_by)
    for item in query.select:
        used.update(columns_in(item.expr))
    for atom in query.having:
        used.update(columns_in(atom.left))
        used.update(columns_in(atom.right))
    if any(col in image and col not in exported for col in used):
        return None

    mapped_conds = mapping.apply_atoms(body.where)
    allowed = (query.cols() - image) | exported
    residual = find_residual(query.where, mapped_conds, allowed)
    if residual is None:
        return None

    first_image_index = min(mapping.image_table_indexes)
    from_: list[Relation] = []
    for index, relation in enumerate(query.from_):
        if index == first_image_index:
            from_.append(occurrence.relation)
        elif index not in mapping.image_table_indexes:
            from_.append(relation)
    where = tuple(residual) + tuple(collision_atoms)
    try:
        candidate = query.with_(from_=tuple(from_), where=where).validate()
    except NormalizationError:
        return None

    # The Cohen–Nutt check: unfold the view occurrence back into base
    # tables and require two-way set equivalence with Q. MIN and MAX are
    # duplicate-insensitive, so set equivalence of the distinguished
    # tuples is exactly aggregate equivalence.
    unfolded = unfold_occurrence(
        candidate, candidate.from_.index(occurrence.relation), view
    )
    pins = _distinguished_pairs(query, unfolded)
    if next(homomorphisms(query, unfolded, pins, meter), None) is None:
        return None
    back = [(u, q) for q, u in pins]
    if next(homomorphisms(unfolded, query, back, meter), None) is None:
        return None
    return Rewriting(
        query=candidate,
        view_names=(view.name,),
        strategy=MAXMIN,
        mapping_desc=mapping.describe(),
        notes=(
            "set-equivalent unfolding, duplicate-insensitive "
            "aggregates (Cohen–Nutt)",
        ),
    )


def _distinguished_pairs(
    left: QueryBlock, right: QueryBlock
) -> list[tuple[Column, Column]]:
    """Positionally paired distinguished columns of two same-shape blocks.

    ``right`` is built from ``left`` by column substitution, so the
    column lists of corresponding SELECT/GROUP BY/HAVING positions line
    up exactly.
    """
    pairs: list[tuple[Column, Column]] = []
    for l_item, r_item in zip(left.select, right.select):
        pairs.extend(
            zip(columns_in(l_item.expr), columns_in(r_item.expr))
        )
    pairs.extend(zip(left.group_by, right.group_by))
    for l_atom, r_atom in zip(left.having, right.having):
        pairs.extend(zip(columns_in(l_atom.left), columns_in(r_atom.left)))
        pairs.extend(
            zip(columns_in(l_atom.right), columns_in(r_atom.right))
        )
    return pairs

