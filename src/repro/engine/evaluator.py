"""Evaluate a QueryBlock under SQL multiset semantics.

The evaluation pipeline follows the paper's two-phase reading (Section 5.1):
the FROM and WHERE clauses build the *core table* (a multiset), then
SELECT / GROUP BY / HAVING apply to it.

Grouping semantics match SQL'92:

* with GROUP BY, each distinct grouping-key combination present in the core
  table forms a group (an empty core table yields no rows);
* without GROUP BY but with aggregates, the whole core table is one group,
  and that single output row exists even for an empty core table
  (COUNT = 0, other aggregates NULL).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from ..blocks.exprs import Aggregate, Arith, Expr
from ..blocks.query_block import QueryBlock
from ..blocks.terms import Column, Comparison, Constant, Op
from ..errors import EvaluationError
from ..obs.metrics import counter
from .aggregates import apply_aggregate
from .planner import GROUPS, ROWS_GROUPED
from .table import Row, Table

#: Resolves a FROM-clause relation name to its data.
RelationResolver = Callable[[str], Table]

#: Recognized values of the ``engine=`` mode switch.
ENGINES = ("row", "columnar", "auto")

#: ``engine="auto"`` picks the columnar executor once any FROM-clause
#: input reaches this many rows; below it, per-block kernel compilation
#: and column gathering cost more than they save and the row engine
#: wins. Chosen from the measured crossover region (``docs/engine.md``).
COLUMNAR_AUTO_THRESHOLD = 4096

AUTO_SWITCHES = counter(
    "repro_engine_auto_switch_total",
    "engine=auto decisions, by chosen executor.",
    ("chosen",),
)
BLOCKS = counter(
    "repro_engine_blocks_total",
    "Query blocks evaluated, by executor and how it was requested.",
    ("engine", "requested"),
)


def _compile_row_expr(expr: Expr, index: Mapping[Column, int]):
    """Compile a row-level expression to a row -> value function."""
    if isinstance(expr, Column):
        try:
            i = index[expr]
        except KeyError:
            raise EvaluationError(f"unbound column {expr}") from None
        return lambda row: row[i]
    if isinstance(expr, Constant):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Arith):
        left = _compile_row_expr(expr.left, index)
        right = _compile_row_expr(expr.right, index)
        op = expr.op
        return lambda row: _arith(op, left(row), right(row))
    raise EvaluationError(f"not a row-level expression: {expr}")


def _arith(op, left, right):
    if left is None or right is None:
        return None
    if op.value == "/":
        if right == 0:
            # SQLite (the cross-check oracle) yields NULL for x / 0; a
            # rewriting can hit this via e.g. SUM(S) / SUM(N) over a
            # group whose counts sum to zero.
            return None
        if isinstance(left, int) and isinstance(right, int):
            return Fraction(left, right)
        return left / right
    return op.apply(left, right)


def _compile_predicate(atom: Comparison, index: Mapping[Column, int]):
    left = _compile_row_expr(atom.left, index)
    right = _compile_row_expr(atom.right, index)
    op = atom.op
    return lambda row: _compare(op, left(row), right(row))


def _compare(op: Op, left, right) -> bool:
    if left is None or right is None:
        return False  # SQL: comparisons with NULL are not true.
    try:
        return op.holds(left, right)
    except TypeError:
        raise EvaluationError(
            f"cannot compare {left!r} {op} {right!r}"
        ) from None


class _GroupEvaluator:
    """Evaluates group-level expressions for one group of core rows."""

    def __init__(
        self,
        rows: Sequence[Row],
        index: Mapping[Column, int],
        group_key: Mapping[Column, object],
    ):
        self.rows = rows
        self.index = index
        self.group_key = group_key
        self._agg_cache: dict[Aggregate, object] = {}

    def value(self, expr: Expr) -> object:
        if isinstance(expr, Column):
            if expr in self.group_key:
                return self.group_key[expr]
            # A bare column with no GROUP BY is only legal in a
            # non-aggregation context, which never reaches here.
            raise EvaluationError(
                f"column {expr} used outside GROUP BY in grouped query"
            )
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, Arith):
            return _arith(expr.op, self.value(expr.left), self.value(expr.right))
        if isinstance(expr, Aggregate):
            if expr not in self._agg_cache:
                arg = _compile_row_expr(expr.arg, self.index)
                values = [arg(row) for row in self.rows]
                self._agg_cache[expr] = apply_aggregate(expr.func, values)
            return self._agg_cache[expr]
        raise EvaluationError(f"cannot evaluate expression {expr}")

    def holds(self, atom: Comparison) -> bool:
        return _compare(atom.op, self.value(atom.left), self.value(atom.right))


def evaluate_block(
    block: QueryBlock,
    resolve: RelationResolver,
    engine: str = "auto",
) -> Table:
    """Evaluate ``block``; FROM names are resolved through ``resolve``.

    ``engine`` selects the execution strategy (see ``docs/engine.md``):

    * ``"row"`` — the original row-at-a-time interpreter below, kept as
      the parity oracle for the vectorized path;
    * ``"columnar"`` — the vectorized executor of
      :mod:`repro.engine.columnar` (identical answer multisets);
    * ``"auto"`` (default) — columnar once any input relation reaches
      :data:`COLUMNAR_AUTO_THRESHOLD` rows, row below it.

    The core table of the row path comes from the hash-join planner
    (:mod:`repro.engine.planner`); the naive product-then-filter path
    (:func:`_build_core`) is not on any execution path. It is the
    reference that ``tests/engine/test_planner.py`` and
    ``benchmarks/bench_ablations.py`` check the hash-join core against.
    """
    if engine not in ENGINES:
        raise EvaluationError(
            f"unknown engine {engine!r}: expected one of {ENGINES}"
        )
    requested = engine
    if engine != "row":
        # Resolve each FROM name once, whichever executor then runs:
        # re-resolving would re-evaluate query-local views per occurrence.
        cache: dict[str, Table] = {}
        raw_resolve = resolve

        def cached_resolve(name: str) -> Table:
            table = cache.get(name)
            if table is None:
                table = cache[name] = raw_resolve(name)
            return table

        if engine == "auto":
            sizes = [
                len(cached_resolve(rel.name).rows) for rel in block.from_
            ]
            engine = (
                "columnar"
                if sizes and max(sizes) >= COLUMNAR_AUTO_THRESHOLD
                else "row"
            )
            AUTO_SWITCHES.labels(engine).inc()
        resolve = cached_resolve
        if engine == "columnar":
            from .columnar import evaluate_block_columnar

            BLOCKS.labels("columnar", requested).inc()
            return evaluate_block_columnar(block, resolve)

    BLOCKS.labels("row", requested).inc()

    from .planner import build_core

    core_rows, index = build_core(block, resolve)

    if block.is_aggregation:
        result = _evaluate_grouped(block, core_rows, index)
    else:
        compiled = [
            _compile_row_expr(item.expr, index) for item in block.select
        ]
        result = Table(
            block.output_names(),
            [tuple(fn(row) for fn in compiled) for row in core_rows],
        )
    if block.distinct:
        result = result.distinct()
    return result


def _build_core(
    block: QueryBlock, resolve: RelationResolver
) -> tuple[list[Row], dict[Column, int]]:
    """Cross product of the FROM-clause relations (the core table)."""
    index: dict[Column, int] = {}
    rows: list[Row] = [()]
    offset = 0
    for rel in block.from_:
        data = resolve(rel.name)
        if len(data.columns) != len(rel.columns):
            raise EvaluationError(
                f"relation {rel.name}: expected {len(rel.columns)} columns, "
                f"data has {len(data.columns)}"
            )
        for i, col in enumerate(rel.columns):
            index[col] = offset + i
        offset += len(rel.columns)
        if not data.rows:
            rows = []
            # Keep filling the index for later relations.
            continue
        rows = [left + right for left in rows for right in data.rows]
    return rows, index


def _evaluate_grouped(
    block: QueryBlock, core_rows: list[Row], index: dict[Column, int]
) -> Table:
    group_cols = block.group_by
    groups: dict[tuple, list[Row]] = {}
    if group_cols:
        key_indexes = [index[c] for c in group_cols]
        for row in core_rows:
            key = tuple(row[i] for i in key_indexes)
            groups.setdefault(key, []).append(row)
    else:
        # A single group that exists even when the core table is empty.
        groups[()] = list(core_rows)

    ROWS_GROUPED.labels("row").inc(len(core_rows))
    GROUPS.labels("row").inc(len(groups))

    out_rows: list[Row] = []
    for key, rows in groups.items():
        key_map = dict(zip(group_cols, key))
        evaluator = _GroupEvaluator(rows, index, key_map)
        if all(evaluator.holds(atom) for atom in block.having):
            out_rows.append(
                tuple(evaluator.value(item.expr) for item in block.select)
            )
    return Table(block.output_names(), out_rows)
