"""Section 5.2: exploiting set semantics with many-to-1 mappings.

When the query and view results are both guaranteed to be *sets* (via
keys, Section 5.1, or SELECT DISTINCT), condition C1 relaxes: the column
mapping may send distinct view tables onto one query table. Steps S1-S3
apply with two modifications:

* view SELECT columns whose images collide keep one representative; the
  later ones get fresh names and an equality predicate ties them to the
  representative (Example 5.1's ``A1 = A4``);
* for every pair of view occurrences collapsed onto one query occurrence,
  a key of that table must be *forced equal* across the pair — either
  already equal under Conds(V), or enforceable through output equalities.
  This is what makes the collapse faithful: equal keys mean the two range
  variables denote the same tuple. (The paper states only "C2 and C3 are
  still required"; without the key-coverage check the collapse is unsound,
  which ``tests/core/test_setsem.py`` demonstrates.)

The rewritten query gets SELECT DISTINCT unless its result is provably a
set, keeping it multiset-equivalent (both sides being sets) to Q.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.terms import Column, Comparison, Op
from ..catalog.keys import result_is_set
from ..catalog.schema import Catalog
from ..constraints.closure import Closure, closure_of
from ..constraints.residual import find_residual
from ..mappings.column_mapping import ColumnMapping
from .common import (
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


def try_rewrite_set_semantics(
    query: QueryBlock,
    view: ViewDef,
    mapping: ColumnMapping,
    catalog: Catalog,
    reports: Reports = None,
) -> Optional[Rewriting]:
    """Rewrite a conjunctive query with a conjunctive view under set
    semantics, allowing many-to-1 mappings. Returns None when the set
    guarantees or the usability conditions fail. ``reports`` is the
    optional sink of :func:`repro.core.conjunctive.try_rewrite_conjunctive`.
    """
    if not (query.is_conjunctive and view.block.is_conjunctive):
        return refuse(
            reports,
            "5.2",
            "the many-to-1 relaxation of Section 5.2 is stated for a "
            "conjunctive query and a conjunctive view",
        )
    if not in_scope(query, view, reports, allow_distinct=True):
        return None
    sets = result_is_set(query, catalog) and result_is_set(view.block, catalog)
    if reports is not None:
        record(
            reports,
            "5.2 sets",
            sets,
            "the query's and the view's results are guaranteed to be sets",
            "the query's and the view's results are not both guaranteed to "
            "be sets (a key surviving the projection, or SELECT DISTINCT)",
        )
    if not sets:
        return None

    closure_q = closure_of(query.where)
    if not closure_q.satisfiable:
        return refuse(reports, "Conds(Q)", UNSATISFIABLE)
    closure_v = closure_of(view.block.where)
    image = mapping.image_columns
    namer = query_namer(query, view.block)
    occurrence = make_view_occurrence(view, mapping, namer)

    # Q' columns per view SELECT position, plus collision equalities.
    sel_exprs = [item.expr for item in view.block.select]
    out_cols = occurrence.select_columns
    collision_eqs: list[Comparison] = []
    rep_for_image: dict[Column, Column] = {}
    for view_col, out_col in zip(sel_exprs, out_cols):
        img = mapping.apply(view_col)
        if img in rep_for_image:
            collision_eqs.append(Comparison(rep_for_image[img], Op.EQ, out_col))
        else:
            rep_for_image[img] = out_col

    # Key coverage: collapsed occurrence pairs must be forced onto the
    # same tuple.
    by_target: dict[int, list[int]] = {}
    for v_idx, q_idx in mapping.table_pairs:
        by_target.setdefault(q_idx, []).append(v_idx)
    loose: list[str] = []
    for q_idx, v_group in by_target.items():
        for i, j in combinations(v_group, 2):
            if _key_forced_equal(view, i, j, closure_v, catalog):
                continue
            if reports is None:
                return None
            loose.append(query.from_[q_idx].name)
    if reports is not None:
        record(
            reports,
            "5.2 keys",
            not loose,
            "every pair of collapsed view occurrences is forced onto one "
            "tuple by a key",
            lambda: "two view occurrences collapse onto "
            + ", ".join(dict.fromkeys(loose))
            + " but no key of that table is forced equal across them (by "
            "Conds(V) or by paired outputs)",
        )

    # Condition C2 over the collapsed images.
    sigma: dict[Column, Column] = {}
    missing: list[Column] = []
    for column in query.col_sel():
        if column not in image:
            continue
        rep = equal_output(column, rep_for_image.items(), closure_q)
        if rep is not None:
            sigma[column] = rep
        elif reports is None:
            return None
        else:
            missing.append(column)
    if reports is not None:
        record_c2(reports, query, missing)

    # Condition C3 with the many-to-1 φ.
    allowed = (query.cols() - image) | frozenset(rep_for_image.values())
    mapped = mapping.apply_atoms(view.block.where)
    residual = find_residual(query.where, mapped, allowed)
    if reports is not None:
        record_c3(reports, closure_q, mapped, residual)
    if residual is None or loose or missing:
        return None

    # The collision equalities join Conds'; DISTINCT is decided below.
    rewritten = substitute_view(
        query, mapping, occurrence, sigma, {}, residual + collision_eqs
    ).with_(distinct=False)
    check_catalog = catalog
    if not catalog.is_view(view.name):
        check_catalog = catalog.copy()
        check_catalog.add_view(view)
    if not result_is_set(rewritten, check_catalog):
        rewritten = rewritten.with_(distinct=True)
    rewritten = rewritten.validate()

    return Rewriting(
        query=rewritten,
        view_names=(view.name,),
        strategy="set-many-to-one",
        mapping_desc=mapping.describe(),
        notes=(
            "set-semantics rewriting (Section 5.2); collapsed "
            f"{len(mapping.table_pairs) - len(mapping.image_table_indexes)}"
            " view occurrence(s)",
        ),
    )


def _key_forced_equal(
    view: ViewDef,
    occ_i: int,
    occ_j: int,
    closure_v: Closure,
    catalog: Catalog,
) -> bool:
    """Can the collapse of view occurrences i and j be made faithful?

    True when, for some candidate key of the underlying table, every key
    column is pairwise forced equal: entailed by Conds(V), or present in
    Sel(V) on both sides (so the caller's collision equalities apply).
    """
    rel_i = view.block.from_[occ_i]
    rel_j = view.block.from_[occ_j]
    if not catalog.is_table(rel_i.name):
        return False
    schema = catalog.table(rel_i.name)
    if not schema.keys:
        return False
    outputs = {
        item.expr for item in view.block.select
    }
    for key in schema.keys:
        ok = True
        for name in key:
            col_i = rel_i.column_for(name)
            col_j = rel_j.column_for(name)
            if closure_v.equal(col_i, col_j):
                continue
            if col_i in outputs and col_j in outputs:
                continue
            ok = False
            break
        if ok:
            return True
    return False
