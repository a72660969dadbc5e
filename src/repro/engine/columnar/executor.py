"""The vectorized scan → filter → hash-join → group/aggregate pipeline.

Drop-in counterpart of the row engine's ``build_core`` + grouped
evaluation: :func:`evaluate_block_columnar` computes exactly the same
multiset of answer rows as :func:`repro.engine.evaluator.evaluate_block`
with ``engine="row"`` (the row engine is retained as the parity oracle —
see ``docs/engine.md``), but it never materializes per-row tuples until
the final output:

* scans bind each FROM occurrence's base columns into a
  :class:`~repro.engine.columnar.batch.Batch` (no copying);
* pushed-down predicates run as compiled selection kernels, producing
  zero-copy selection vectors;
* equi-joins run as hash joins over gathered key columns, emitting
  parallel position vectors instead of concatenated tuples;
* grouping assigns dense group ids in a single pass and folds every
  aggregate with the per-group accumulation kernels of
  :mod:`repro.engine.aggregates`;
* SELECT / HAVING group expressions are compiled once per block and
  evaluated once per group.

Pushdown, join order and deferred-predicate scheduling reuse the row
planner's :func:`~repro.engine.planner.classify_predicates` and
:func:`~repro.engine.planner.greedy_join_order`, so both engines make
identical plan decisions and differ only in execution strategy.
"""

from __future__ import annotations

from typing import Callable

from ...blocks.exprs import Aggregate, Arith, Expr, columns_in
from ...blocks.query_block import QueryBlock
from ...blocks.terms import Column, Comparison, Constant
from ...errors import EvaluationError
from ...obs.metrics import counter
from ..aggregates import accumulate_by_group, apply_aggregate
from ..planner import (
    GROUPS,
    ROWS_GROUPED,
    ROWS_JOINED,
    ROWS_SCANNED,
    classify_predicates,
    greedy_join_order,
)
from ..table import Table
from .batch import Batch
from .kernels import compile_filter_kernel, compile_value_kernel

RelationResolver = Callable[[str], Table]


#: Counted at executor call sites, not inside the (recursive) kernel
#: compilers, so one Arith tree counts as one compilation.
KERNEL_COMPILATIONS = counter(
    "repro_engine_kernel_compilations_total",
    "Columnar kernels compiled, by kind.",
    ("kind",),
)


def evaluate_block_columnar(
    block: QueryBlock, resolve: RelationResolver
) -> Table:
    """Evaluate ``block`` on the columnar engine (exact row-engine parity)."""
    batch = build_core_batch(block, resolve)
    if block.is_aggregation:
        result = _evaluate_grouped(block, batch)
    else:
        kernels = [
            compile_value_kernel(item.expr) for item in block.select
        ]
        KERNEL_COMPILATIONS.labels("value").inc(len(kernels))
        columns = [kernel(batch) for kernel in kernels]
        if len(columns) == 1:
            rows = [(v,) for v in columns[0]]
        else:
            rows = list(zip(*columns)) if batch.length else []
        result = Table.from_rows(block.output_names(), rows)
    if block.distinct:
        result = result.distinct()
    return result


# ----------------------------------------------------------------------
# Core-table construction (columnar)
# ----------------------------------------------------------------------


def build_core_batch(
    block: QueryBlock, resolve: RelationResolver
) -> Batch:
    """The filtered core table of ``block`` as a columnar batch."""
    n = len(block.from_)
    owner_of: dict[Column, int] = {}
    for i, rel in enumerate(block.from_):
        for col in rel.columns:
            owner_of[col] = i

    classified = classify_predicates(block, owner_of)
    if classified.contradiction:
        # Constant-false WHERE: the core table is empty, no scan needed.
        return Batch.empty([rel.columns for rel in block.from_])

    # ------------------------------------------------------------------
    # Scan each relation into a batch; push local predicates down.
    # ------------------------------------------------------------------
    rows_scanned = 0
    filter_kernels = 0
    scans: list[Batch] = []
    for i, rel in enumerate(block.from_):
        data = resolve(rel.name)
        if len(data.columns) != len(rel.columns):
            raise EvaluationError(
                f"relation {rel.name}: expected {len(rel.columns)} "
                f"columns, data has {len(data.columns)}"
            )
        rows_scanned += len(data.rows)
        column_data = data.as_columns()
        columns = {
            col: column_data[j] for j, col in enumerate(rel.columns)
        }
        scan = Batch.from_columns(columns, len(data.rows))
        for atom in classified.local[i]:
            scan = scan.select(compile_filter_kernel(atom)(scan))
            filter_kernels += 1
        scans.append(scan)

    order = greedy_join_order(
        [scan.length for scan in scans], classified.equi_joins
    )

    # ------------------------------------------------------------------
    # Hash joins along the order; deferred predicates as soon as bound.
    # ------------------------------------------------------------------
    bound: set[int] = {order[0]}
    bound_cols: set[Column] = set(block.from_[order[0]].columns)
    batch = scans[order[0]]
    pending = list(classified.deferred)
    before = len(pending)
    batch, pending = _apply_ready(batch, pending, bound_cols)
    filter_kernels += before - len(pending)

    for idx in order[1:]:
        rel = block.from_[idx]
        # Every equality atom linking the new relation to the bound set
        # becomes part of the hash key: (new column, bound column).
        edges: list[tuple[Column, Column]] = []
        for a, b, l, r in classified.equi_joins:
            if a == idx and b in bound:
                edges.append((l, r))
            elif b == idx and a in bound:
                edges.append((r, l))
        if edges and batch.length:
            batch = _hash_join(batch, scans[idx], edges)
        else:
            batch = batch.cross(scans[idx])
        bound.add(idx)
        bound_cols.update(rel.columns)
        before = len(pending)
        batch, pending = _apply_ready(batch, pending, bound_cols)
        filter_kernels += before - len(pending)

    ROWS_SCANNED.labels("columnar").inc(rows_scanned)
    ROWS_JOINED.labels("columnar").inc(batch.length)
    if filter_kernels:
        KERNEL_COMPILATIONS.labels("filter").inc(filter_kernels)
    return batch


def _hash_join(
    probe: Batch, build: Batch, edges: list
) -> Batch:
    """Hash join emitting parallel position vectors (NULL keys never match).

    The hash table is always built on the smaller input (the multiset
    join is symmetric, so swapping roles only permutes output order,
    which multiset semantics ignores).
    """
    if build.length > probe.length:
        probe, build = build, probe
        edges = [(b, c) for c, b in edges]
    probe_idx: list = []
    build_idx: list = []
    probe_append = probe_idx.append
    build_append = build_idx.append
    table: dict = {}
    if len(edges) == 1:
        build_col, probe_col = edges[0]
        build_vals = build.column(build_col)
        unique = True
        for j, v in enumerate(build_vals):
            if v is None:
                continue  # SQL: NULL = anything is not true
            if v in table:
                unique = False
                break
            table[v] = j
        probe_vals = probe.column(probe_col)
        if unique:
            # Unique build keys (the fact-to-dimension shape): at most
            # one hit per probe row, so the whole probe runs as
            # listcomps with no per-row bucket handling. ``get(None)``
            # misses because NULL keys were never inserted.
            get = table.get
            hits = [get(v) for v in probe_vals]
            if None not in hits:
                # Every probe row matched: the probe side keeps its
                # identity selection (no position rewrite, no gather).
                return probe.join(build, None, hits)
            probe_idx = [i for i, j in enumerate(hits) if j is not None]
            build_idx = [hits[i] for i in probe_idx]
        else:
            table = {}
            for j, v in enumerate(build_vals):
                if v is None:
                    continue
                bucket = table.get(v)
                if bucket is None:
                    table[v] = [j]
                else:
                    bucket.append(j)
            get = table.get
            for i, v in enumerate(probe_vals):
                if v is None:
                    continue
                bucket = get(v)
                if bucket is None:
                    continue
                if len(bucket) == 1:
                    probe_append(i)
                    build_append(bucket[0])
                else:
                    probe_idx.extend([i] * len(bucket))
                    build_idx.extend(bucket)
    else:
        build_cols = [build.column(c) for c, _b in edges]
        probe_cols = [probe.column(b) for _c, b in edges]
        for j, key in enumerate(zip(*build_cols)):
            if None in key:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [j]
            else:
                bucket.append(j)
        get = table.get
        for i, key in enumerate(zip(*probe_cols)):
            if None in key:
                continue
            bucket = get(key)
            if bucket is None:
                continue
            if len(bucket) == 1:
                probe_append(i)
                build_append(bucket[0])
            else:
                probe_idx.extend([i] * len(bucket))
                build_idx.extend(bucket)
    return probe.join(build, probe_idx, build_idx)


def _apply_ready(
    batch: Batch, pending: list, bound_cols: set
) -> tuple[Batch, list]:
    """Apply every pending predicate whose columns are all bound."""
    still: list = []
    for atom in pending:
        cols = list(columns_in(atom.left)) + list(columns_in(atom.right))
        if all(c in bound_cols for c in cols):
            batch = batch.select(compile_filter_kernel(atom)(batch))
        else:
            still.append(atom)
    return batch, still


# ----------------------------------------------------------------------
# Grouped aggregation (single-pass dense group ids)
# ----------------------------------------------------------------------


class _GroupIds(dict):
    """Maps each grouping key to a dense id, assigned on first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        gid = self[key] = len(self)
        return gid


def _positional_groups(batch: Batch, group_cols):
    """Dense group ids keyed by source position instead of value tuples.

    When every GROUP BY column lives in one source behind a shared
    selection vector (e.g. the dimension side of a join), rows at the
    same source position necessarily carry the same grouping key — so
    the per-row work is one int dict lookup, no tuple allocation, no
    column gather. Distinct positions can still hold *equal* keys
    (duplicate dimension rows), so position groups are merged by their
    materialized key afterwards; that pass is per distinct position,
    not per row.

    Returns None when the columns span sources, the source has the
    identity selection (nothing to key on), or the source's base table
    is not much smaller than the batch: positions only repeat enough
    to pay off when a small relation fans out across many batch rows,
    while a filtered fact table has mostly-distinct positions and the
    per-position merge becomes pure overhead.
    """
    source = batch.common_source(group_cols)
    if source is None:
        return None
    columns, positions = source
    if positions is None:
        return None
    base_rows = len(next(iter(columns.values())))
    if base_rows * 8 > batch.length:
        return None
    pos_map = _GroupIds()
    pgids = [pos_map[p] for p in positions]
    data = [columns[c] for c in group_cols]
    key_map = _GroupIds()
    remap = [
        key_map[tuple(col[p] for col in data)] for p in pos_map
    ]
    if len(key_map) == len(pos_map):
        return pgids, list(key_map), len(key_map)
    return (
        [remap[g] for g in pgids],
        list(key_map),
        len(key_map),
    )


def _evaluate_grouped(block: QueryBlock, batch: Batch) -> Table:
    group_cols = block.group_by
    n = batch.length

    # Dense group ids in one pass. SQL groups NULL keys together, which
    # dict keying on None gives for free (matching the row engine and
    # SQLite GROUP BY). The auto-assigning dict keeps the whole pass a
    # listcomp of C-speed lookups; ``__missing__`` only fires once per
    # distinct key.
    if group_cols:
        grouped = _positional_groups(batch, group_cols)
        if grouped is None:
            group_map = _GroupIds()
            if len(group_cols) == 1:
                gids = [
                    group_map[v] for v in batch.column(group_cols[0])
                ]
                keys = [(k,) for k in group_map]
            else:
                key_cols = [batch.column(c) for c in group_cols]
                gids = [group_map[key] for key in zip(*key_cols)]
                keys = list(group_map)
            ngroups = len(group_map)
        else:
            gids, keys, ngroups = grouped
    else:
        # A single group that exists even when the core table is empty.
        gids = [0] * n
        keys = [()]
        ngroups = 1

    # Every distinct aggregate folds once over its argument column.
    distinct_aggs: list[Aggregate] = []
    for agg in block.all_aggregates():
        if agg not in distinct_aggs:
            distinct_aggs.append(agg)
    if distinct_aggs:
        KERNEL_COMPILATIONS.labels("value").inc(len(distinct_aggs))
    agg_values: dict[Aggregate, list] = {}
    for agg in distinct_aggs:
        arg_column = compile_value_kernel(agg.arg)(batch)
        if group_cols:
            agg_values[agg] = accumulate_by_group(
                agg.func, gids, arg_column, ngroups
            )
        else:
            agg_values[agg] = [apply_aggregate(agg.func, arg_column)]

    key_pos = {col: i for i, col in enumerate(group_cols)}

    having = [
        _compile_group_predicate(atom, key_pos, agg_values)
        for atom in block.having
    ]
    select = [
        _compile_group_expr(item.expr, key_pos, agg_values)
        for item in block.select
    ]

    ROWS_GROUPED.labels("columnar").inc(n)
    GROUPS.labels("columnar").inc(ngroups)

    out_rows: list = []
    out_append = out_rows.append
    for gid in range(ngroups):
        key = keys[gid]
        if all(predicate(key, gid) for predicate in having):
            out_append(tuple(fn(key, gid) for fn in select))
    return Table.from_rows(block.output_names(), out_rows)


def _compile_group_expr(
    expr: Expr, key_pos: dict, agg_values: dict
) -> Callable:
    """Compile a group-level expression to a ``(key, gid) -> value`` fn."""
    from ..evaluator import _arith

    if isinstance(expr, Column):
        try:
            i = key_pos[expr]
        except KeyError:
            raise EvaluationError(
                f"column {expr} used outside GROUP BY in grouped query"
            ) from None
        return lambda key, gid: key[i]
    if isinstance(expr, Constant):
        value = expr.value
        return lambda key, gid: value
    if isinstance(expr, Aggregate):
        values = agg_values[expr]
        return lambda key, gid: values[gid]
    if isinstance(expr, Arith):
        left = _compile_group_expr(expr.left, key_pos, agg_values)
        right = _compile_group_expr(expr.right, key_pos, agg_values)
        op = expr.op
        return lambda key, gid: _arith(op, left(key, gid), right(key, gid))
    raise EvaluationError(f"cannot evaluate expression {expr}")


def _compile_group_predicate(
    atom: Comparison, key_pos: dict, agg_values: dict
) -> Callable:
    from ..evaluator import _compare

    left = _compile_group_expr(atom.left, key_pos, agg_values)
    right = _compile_group_expr(atom.right, key_pos, agg_values)
    op = atom.op
    return lambda key, gid: _compare(op, left(key, gid), right(key, gid))
