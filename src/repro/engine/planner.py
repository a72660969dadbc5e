"""Join planning for the core-table phase: pushdown + greedy hash joins.

The naive core-table construction materializes the full Cartesian product
before filtering — quadratic pain exactly where the paper's motivating
workloads live (fact-table joins). This planner keeps the same multiset
semantics while:

* pushing single-relation predicates into the scans;
* joining relations in a greedy order (smallest filtered relation first,
  preferring relations connected by equality predicates);
* executing connected joins as hash joins on the equality columns;
* applying remaining predicates as soon as their columns are bound.

The result is exactly the filtered core-table multiset; grouping and
SELECT evaluation downstream are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..blocks.query_block import QueryBlock
from ..blocks.terms import Column, Comparison, Constant, Op
from ..obs.metrics import counter
from .table import Row, Table

# Recorded by both engines (label ``engine``: row / columnar); declared
# here, the module the row evaluator and the columnar executor share.
ROWS_SCANNED = counter(
    "repro_engine_rows_scanned_total",
    "Base-relation rows read while building core tables.",
    ("engine",),
)
ROWS_JOINED = counter(
    "repro_engine_rows_joined_total",
    "Core-table rows produced by the join phase.",
    ("engine",),
)
ROWS_GROUPED = counter(
    "repro_engine_rows_grouped_total",
    "Core rows fed into grouped aggregation, by executor.",
    ("engine",),
)
GROUPS = counter(
    "repro_engine_groups_total",
    "Groups formed by grouped aggregation, by executor.",
    ("engine",),
)

RelationResolver = Callable[[str], Table]


@dataclass
class ClassifiedPredicates:
    """The WHERE clause split by how early each atom can run.

    Shared by the row-at-a-time path below and the columnar executor
    (:mod:`repro.engine.columnar.executor`), so both engines make
    identical pushdown and join-order decisions.
    """

    #: Single-relation atoms, pushed into that relation's scan.
    local: dict[int, list[Comparison]] = field(default_factory=dict)
    #: ``(owner_a, owner_b, col_a, col_b)`` equality edges (hash joins).
    equi_joins: list[tuple[int, int, Column, Column]] = field(
        default_factory=list
    )
    #: Atoms spanning relations without being equi-join edges; applied
    #: as soon as all their columns are bound.
    deferred: list[Comparison] = field(default_factory=list)
    #: True when a constant-only atom decides the whole block to empty.
    contradiction: bool = False


def classify_predicates(
    block: QueryBlock, owner_of: dict[Column, int]
) -> ClassifiedPredicates:
    """Split ``block.where`` into local / equi-join / deferred atoms."""
    out = ClassifiedPredicates(
        local={i: [] for i in range(len(block.from_))}
    )
    for atom in block.where:
        cols = [
            side
            for side in (atom.left, atom.right)
            if isinstance(side, Column)
        ]
        owners = {owner_of[c] for c in cols}
        if not owners:
            # Constant-only atom: decide it once.
            left = atom.left.value if isinstance(atom.left, Constant) else None
            right = (
                atom.right.value if isinstance(atom.right, Constant) else None
            )
            if not atom.op.holds(left, right):
                out.contradiction = True
            continue
        if len(owners) == 1:
            out.local[owners.pop()].append(atom)
        elif (
            atom.op is Op.EQ
            and len(cols) == 2
            and len(owners) == 2
        ):
            out.equi_joins.append(
                (owner_of[cols[0]], owner_of[cols[1]], cols[0], cols[1])
            )
        else:
            out.deferred.append(atom)
    return out


def greedy_join_order(
    sizes: Sequence[int],
    equi_joins: Sequence[tuple[int, int, Column, Column]],
) -> list[int]:
    """Smallest-first join order, preferring equi-connected relations."""
    n = len(sizes)
    remaining = set(range(n))
    order: list[int] = []
    start = min(remaining, key=lambda i: sizes[i])
    order.append(start)
    remaining.discard(start)
    while remaining:
        connected = [
            i
            for i in remaining
            if any(
                (a in (i,) and b in order) or (b in (i,) and a in order)
                for a, b, _l, _r in equi_joins
            )
        ]
        pool = connected or sorted(remaining)
        nxt = min(pool, key=lambda i: sizes[i])
        order.append(nxt)
        remaining.discard(nxt)
    return order


def build_core(
    block: QueryBlock, resolve: RelationResolver
) -> tuple[list[Row], dict[Column, int]]:
    """The filtered core table of ``block`` plus its column index."""
    from .evaluator import _compile_predicate, _compile_row_expr  # cycle

    n = len(block.from_)
    owner_of: dict[Column, int] = {}
    for i, rel in enumerate(block.from_):
        for col in rel.columns:
            owner_of[col] = i

    # The global column index (column -> position in the output tuples) is
    # fixed up front; per-step indexes map into partial tuples.
    index: dict[Column, int] = {}
    offset = 0
    for rel in block.from_:
        for j, col in enumerate(rel.columns):
            index[col] = offset + j
        offset += len(rel.columns)

    classified = classify_predicates(block, owner_of)
    if classified.contradiction:
        return [], index
    local = classified.local
    equi_joins = classified.equi_joins
    deferred = classified.deferred

    # ------------------------------------------------------------------
    # Scan + local filter each relation.
    # ------------------------------------------------------------------
    rows_scanned = 0
    scans: list[list[Row]] = []
    for i, rel in enumerate(block.from_):
        data = resolve(rel.name)
        rows_scanned += len(data.rows)
        if len(data.columns) != len(rel.columns):
            from ..errors import EvaluationError

            raise EvaluationError(
                f"relation {rel.name}: expected {len(rel.columns)} "
                f"columns, data has {len(data.columns)}"
            )
        rows = data.rows
        if local[i]:
            scan_index = {col: j for j, col in enumerate(rel.columns)}
            predicates = [
                _compile_predicate(atom, scan_index) for atom in local[i]
            ]
            rows = [
                row
                for row in rows
                if all(predicate(row) for predicate in predicates)
            ]
        scans.append(rows)

    # ------------------------------------------------------------------
    # Greedy join order.
    # ------------------------------------------------------------------
    remaining = set(range(n))
    order: list[int] = []
    start = min(remaining, key=lambda i: len(scans[i]))
    order.append(start)
    remaining.discard(start)
    while remaining:
        connected = [
            i
            for i in remaining
            if any(
                (a in (i,) and b in order) or (b in (i,) and a in order)
                for a, b, _l, _r in equi_joins
            )
        ]
        pool = connected or sorted(remaining)
        nxt = min(pool, key=lambda i: len(scans[i]))
        order.append(nxt)
        remaining.discard(nxt)

    # ------------------------------------------------------------------
    # Execute: hash joins along the order, deferred filters ASAP.
    # ------------------------------------------------------------------
    bound: set[int] = {order[0]}
    positions: dict[Column, int] = {
        col: j for j, col in enumerate(block.from_[order[0]].columns)
    }
    current: list[Row] = list(scans[order[0]])
    pending = list(deferred)
    current, pending = _apply_ready(
        current, pending, positions, _compile_predicate
    )

    for idx in order[1:]:
        rel = block.from_[idx]
        rel_positions = {col: j for j, col in enumerate(rel.columns)}
        # Every equality atom linking the new relation to the bound set
        # becomes part of the hash key: (new-relation column, bound column).
        edges: list[tuple[Column, Column]] = []
        for a, b, l, r in equi_joins:
            if a == idx and b in bound:
                edges.append((l, r))
            elif b == idx and a in bound:
                edges.append((r, l))
        if edges and current:
            build: dict[tuple, list[Row]] = {}
            new_key = [rel_positions[c] for c, _b in edges]
            for row in scans[idx]:
                key = tuple(row[p] for p in new_key)
                if None in key:
                    continue  # SQL: NULL = anything is not true
                build.setdefault(key, []).append(row)
            probe_key = [positions[b] for _c, b in edges]
            joined: list[Row] = []
            for row in current:
                key = tuple(row[p] for p in probe_key)
                if None in key:
                    continue
                matches = build.get(key)
                if matches:
                    joined.extend(row + other for other in matches)
            current = joined
        else:
            current = [
                row + other for row in current for other in scans[idx]
            ]
        base = len(positions)
        for col, j in rel_positions.items():
            positions[col] = base + j
        bound.add(idx)
        current, pending = _apply_ready(
            current, pending, positions, _compile_predicate
        )

    ROWS_SCANNED.labels("row").inc(rows_scanned)
    ROWS_JOINED.labels("row").inc(len(current))

    # Re-order tuple positions to the canonical block layout.
    if positions != index:
        permutation = [0] * len(index)
        for col, pos in index.items():
            permutation[pos] = positions[col]
        current = [
            tuple(row[p] for p in permutation) for row in current
        ]
    return current, index


def _apply_ready(rows, pending, positions, compile_predicate):
    """Apply every pending predicate whose columns are all bound."""
    from ..blocks.exprs import columns_in

    ready, still = [], []
    for atom in pending:
        cols = list(columns_in(atom.left)) + list(columns_in(atom.right))
        if all(c in positions for c in cols):
            ready.append(atom)
        else:
            still.append(atom)
    for atom in ready:
        predicate = compile_predicate(atom, positions)
        rows = [row for row in rows if predicate(row)]
    return rows, still
