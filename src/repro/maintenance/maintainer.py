"""Incremental maintenance of materialized views.

A :class:`MaintainedView` keeps the materialization of a single-block
view up to date as rows are inserted into / deleted from base tables,
without recomputing the view from scratch:

* delta core rows come from the telescoping product rule
  (:mod:`repro.maintenance.delta`), which handles self-joins;
* SUM/COUNT/AVG states update in O(1) per delta row;
* MIN/MAX update in O(1) on inserts and on deletes of non-extremal
  values; deleting a group's extremum marks the group *dirty*, and dirty
  groups are recomputed from base data in one batch at the next read —
  the standard treatment in the incremental-view-maintenance literature
  the paper cites ([BLT86, GMS93]).

A change is all or nothing: every maintainer computes its delta on
copies of the touched groups first, so one that cannot absorb the change
leaves every view, and the database, as they were.

This substrate completes the paper's warehouse story: Example 1.1's V1
can be kept fresh under a stream of Calls inserts while the rewriter
answers queries from it.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..blocks.exprs import Aggregate, Arith, Expr, has_aggregate
from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.terms import Column, Comparison, Constant
from ..engine.database import Database
from ..engine.evaluator import _compile_row_expr  # noqa: SLF001
from ..engine.table import Table
from ..errors import EvaluationError, SchemaError, UnsupportedSQLError
from .delta import check_removable, delta_core_rows, table_minus, table_plus
from .state import AggState, GroupState


@dataclass(frozen=True)
class ViewDelta:
    """One observed base-table change, as seen by one maintained view.

    Emitted to registered delta listeners *after* the view's
    materialization has absorbed the change, so a listener reading
    :meth:`MaintainedView.table` sees post-delta state. ``relevant`` is
    False when the view does not read the changed table (the
    materialization is untouched, but cache layers keyed on the whole
    database may still care).
    """

    view_name: str
    table_name: str
    inserted: int
    deleted: int
    relevant: bool
    maintainer: "MaintainedView"


#: Registered ``Callable[[ViewDelta], None]`` listeners. The serving
#: daemon's shared memo tier hooks in here: a view delta bumps the
#: tier's epoch and evicts the affected fingerprints without a restart.
_DELTA_LISTENERS: list[Callable[[ViewDelta], None]] = []
_LISTENER_LOCK = threading.Lock()


def register_delta_listener(
    listener: Callable[[ViewDelta], None],
) -> Callable[[], None]:
    """Subscribe to every maintained-view delta; returns an unsubscribe.

    Listeners run synchronously on the maintaining thread, after the
    view state is updated. A listener that raises propagates to the
    caller of ``observe``/``apply`` — maintenance itself has already
    completed at that point.
    """
    with _LISTENER_LOCK:
        _DELTA_LISTENERS.append(listener)

    def unsubscribe() -> None:
        with _LISTENER_LOCK:
            try:
                _DELTA_LISTENERS.remove(listener)
            except ValueError:
                pass

    return unsubscribe


def _notify_delta(event: ViewDelta) -> None:
    with _LISTENER_LOCK:
        listeners = list(_DELTA_LISTENERS)
    for listener in listeners:
        listener(event)


class MaintainedView:
    """An incrementally maintained materialization of one view."""

    def __init__(self, view: ViewDef, database: Database):
        self.view = view
        self.db = database
        block = view.block
        if block.distinct:
            raise UnsupportedSQLError(
                "incremental maintenance of DISTINCT views is not supported"
            )
        for rel in block.from_:
            if not database.catalog.is_table(rel.name):
                raise UnsupportedSQLError(
                    f"view {view.name} reads {rel.name}, which is not a "
                    f"base table; stack maintainers instead"
                )
        self.block = block

        # Positional column index over the core table.
        self._index: dict[Column, int] = {}
        offset = 0
        for rel in block.from_:
            for j, col in enumerate(rel.columns):
                self._index[col] = offset + j
            offset += len(rel.columns)

        self._group_key_fns = [
            _compile_row_expr(col, self._index) for col in block.group_by
        ]
        #: distinct aggregates of SELECT and HAVING, each with a compiled
        #: argument evaluator.
        self._aggs: list[Aggregate] = list(
            dict.fromkeys(block.all_aggregates())
        )
        self._agg_pos = {agg: i for i, agg in enumerate(self._aggs)}
        self._agg_arg_fns = [
            _compile_row_expr(agg.arg, self._index) for agg in self._aggs
        ]

        self.is_aggregation = block.is_aggregation
        if self.is_aggregation:
            self._groups: dict[tuple, GroupState] = {}
        else:
            self._row_counts: Counter = Counter()
            self._select_fns = [
                _compile_row_expr(item.expr, self._index)
                for item in block.select
            ]

        self.maintenance_rows = 0  # delta rows processed (for benches)
        #: Keys of groups whose MIN/MAX lost its extremum.
        self._dirty: set[tuple] = set()
        self._initialize()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _base_tables(self) -> dict[str, Table]:
        return {
            rel.name: self.db.table(rel.name) for rel in self.block.from_
        }

    def _initialize(self) -> None:
        """Full initial computation (the only non-incremental step)."""
        self._commit_of((), self._full_core())()

    def _full_core(self) -> list:
        """Every core row of the view over the current database."""
        tables = self._base_tables()
        return delta_core_rows(
            # Trick: treat the whole first table as the delta against an
            # empty "old" state; the telescope then yields the full core.
            self.block,
            self.block.from_[0].name,
            tables[self.block.from_[0].name],
            old={
                name: Table(t.columns, [])
                for name, t in tables.items()
            },
            new=tables,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply(
        self,
        table_name: str,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
    ) -> None:
        """Apply a base-table change and maintain the view.

        Also updates the underlying :class:`Database`. When several
        maintained views share one database, use :func:`apply_change`
        instead, which lets every maintainer observe the pre-change state
        before the database mutates.
        """
        self.observe(table_name, inserts, deletes, update_database=True)

    def observe(
        self,
        table_name: str,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
        update_database: bool = True,
    ) -> None:
        """Maintain the view for a base-table change, all or nothing.

        Must be called *before* the shared database reflects the change.
        With ``update_database=True`` the database is mutated here (in
        O(delta)); with ``False`` the caller applies the change itself —
        see :func:`apply_change` for coordinating several maintainers.
        """
        _change(
            [self], self.db, table_name, inserts, deletes, update_database
        )

    def _prepare(
        self, table_name: str, insert_rows: list, delete_rows: list
    ) -> Callable[[], None]:
        """This view's delta for a checked base-table change, computed
        against the pre-change database without touching any state; the
        returned commit applies it (and cannot fail)."""
        occurrences = sum(
            1 for rel in self.block.from_ if rel.name == table_name
        )
        if not occurrences:
            return lambda: None
        columns = self.db.catalog.table(table_name).columns
        # A table's own content is read only when the view self-joins it
        # (the telescope then consults old/new side by side).
        current = self.db.table(table_name)
        removed = added = ()
        if delete_rows:
            after = (
                table_minus(current, delete_rows)
                if occurrences > 1
                else current
            )
            removed = self._delta_core(
                table_name, Table(columns, delete_rows), current, after
            )
            current = after
        if insert_rows:
            after = (
                table_plus(current, insert_rows)
                if occurrences > 1
                else current
            )
            added = self._delta_core(
                table_name, Table(columns, insert_rows), current, after
            )
        return self._commit_of(removed, added)

    def _delta_core(
        self, table_name: str, delta: Table, old: Table, new: Table
    ) -> list:
        tables = self._base_tables()
        return delta_core_rows(
            self.block,
            table_name,
            delta,
            old={**tables, table_name: old},
            new={**tables, table_name: new},
        )

    def _commit_of(self, removed, added) -> Callable[[], None]:
        """The commit of removing then adding these core rows.

        Everything that can fail (row expressions, aggregate arithmetic)
        runs here, on copies of the touched groups.
        """
        processed = len(removed) + len(added)
        if not self.is_aggregation:
            outputs: Counter = Counter()
            for rows, sign in ((removed, -1), (added, +1)):
                for row in rows:
                    outputs[tuple(fn(row) for fn in self._select_fns)] += sign

            def commit_rows() -> None:
                self.maintenance_rows += processed
                counts = self._row_counts
                for out, n in outputs.items():
                    counts[out] += n
                    if counts[out] == 0:
                        del counts[out]

            return commit_rows

        #: New state per touched group; ``None`` = the group emptied.
        touched: dict[tuple, Optional[GroupState]] = {}
        for rows, sign in ((removed, -1), (added, +1)):
            for row in rows:
                key = tuple(fn(row) for fn in self._group_key_fns)
                if key not in touched:
                    old = self._groups.get(key)
                    touched[key] = old.copy() if old is not None else None
                state = touched[key] or self._new_group(key)
                values = tuple(fn(row) for fn in self._agg_arg_fns)
                if sign > 0:
                    state.insert(values)
                else:
                    state.delete(values)
                touched[key] = None if state.empty else state

        def commit_groups() -> None:
            self.maintenance_rows += processed
            for key, state in touched.items():
                if state is None:
                    self._groups.pop(key, None)
                    self._dirty.discard(key)
                else:
                    self._groups[key] = state
                    if state.needs_recompute:
                        self._dirty.add(key)

        return commit_groups

    def _new_group(self, key: tuple) -> GroupState:
        return GroupState(
            key=key, aggregates=[AggState(agg.func) for agg in self._aggs]
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def table(self) -> Table:
        """The current materialization (header = the view's output names)."""
        if not self.is_aggregation:
            rows = []
            for row, count in self._row_counts.items():
                rows.extend([row] * count)
            return Table(self.view.output_names, rows)
        return Table(
            self.view.output_names,
            [
                tuple(
                    evaluator.value(item.expr)
                    for item in self.block.select
                )
                for evaluator in self._output_groups()
            ],
        )

    def row_count(self) -> int:
        """``len(self.table())``, counted without building a row."""
        if not self.is_aggregation:
            return sum(self._row_counts.values())
        if self.block.having:
            return sum(1 for _ in self._output_groups())
        self._recompute_dirty()
        if not self._groups and not self.block.group_by:
            return 1  # SQL's one row on empty input
        return len(self._groups)

    def _output_groups(self) -> Iterator["_StateEvaluator"]:
        """An evaluator per output row: each group whose HAVING holds."""
        self._recompute_dirty()
        states: Iterable[GroupState] = self._groups.values()
        if not self.block.group_by and not self._groups:
            # SQL's one-row-on-empty-input rule for global aggregates.
            states = [self._new_group(())]
        for state in states:
            evaluator = _StateEvaluator(self, state)
            if all(evaluator.holds(atom) for atom in self.block.having):
                yield evaluator

    def _recompute_dirty(self) -> None:
        """Rebuild the groups whose MIN/MAX lost its extremum."""
        if not self._dirty:
            return
        rebuilt: dict[tuple, GroupState] = {}
        for row in self._full_core():
            key = tuple(fn(row) for fn in self._group_key_fns)
            if key not in self._dirty:
                continue
            state = rebuilt.get(key)
            if state is None:
                state = rebuilt[key] = self._new_group(key)
            state.insert(tuple(fn(row) for fn in self._agg_arg_fns))
        for key in self._dirty:
            if key in rebuilt:
                self._groups[key] = rebuilt[key]
            else:
                del self._groups[key]
        self._dirty = set()

    def consistency_check(self) -> bool:
        """Compare against a fresh full evaluation (used by tests)."""
        fresh = self.db.execute(self.block)
        return self.table().multiset_equal(fresh)


def apply_change(
    maintainers: Sequence["MaintainedView"],
    table_name: str,
    inserts: Iterable[Sequence] = (),
    deletes: Iterable[Sequence] = (),
    database: Optional[Database] = None,
) -> None:
    """Apply one base-table change across several maintained views.

    Every maintainer observes the change against the *pre-change*
    database state, then the shared database is mutated once. Use this
    (rather than calling :meth:`MaintainedView.apply` on each) when
    multiple views share a database: a maintainer that observes after the
    database changed would compute its deltas against the wrong snapshot
    whenever its view self-joins the changed table.

    All or nothing: a change that fails anywhere — a missing delete
    row, a wrong-width row, a value one view's aggregate cannot absorb —
    raises before any view state or the database changes, and no
    listener hears of it.
    """
    db = database
    for maintainer in maintainers:
        if db is None:
            db = maintainer.db
        elif maintainer.db is not db:
            raise ValueError(
                "apply_change requires all maintainers to share a database"
            )
    if db is None:
        raise ValueError("no maintainers and no database given")
    _change(maintainers, db, table_name, inserts, deletes, True)


def _change(
    maintainers: Sequence[MaintainedView],
    db: Database,
    table_name: str,
    inserts: Iterable[Sequence],
    deletes: Iterable[Sequence],
    update_database: bool,
) -> None:
    """Check, prepare every maintainer, mutate ``db``, commit, notify."""
    insert_rows = [tuple(r) for r in inserts]
    delete_rows = [tuple(r) for r in deletes]
    schema = db.catalog.table(table_name)
    for row in insert_rows:
        if len(row) != len(schema.columns):
            raise SchemaError(
                f"table {table_name}: row {row!r} has {len(row)} values "
                f"for {len(schema.columns)} columns"
            )
    if delete_rows:
        check_removable(db.table(table_name), delete_rows)
    commits = [
        maintainer._prepare(table_name, insert_rows, delete_rows)
        for maintainer in maintainers
    ]
    if update_database:
        if delete_rows:
            db.remove_rows(table_name, delete_rows)
        if insert_rows:
            db.append_rows(table_name, insert_rows)
    for commit in commits:
        commit()
    if not (insert_rows or delete_rows):
        return
    for maintainer in maintainers:
        _notify_delta(
            ViewDelta(
                view_name=maintainer.view.name,
                table_name=table_name,
                inserted=len(insert_rows),
                deleted=len(delete_rows),
                relevant=any(
                    rel.name == table_name for rel in maintainer.block.from_
                ),
                maintainer=maintainer,
            )
        )

class _StateEvaluator:
    """Evaluates SELECT/HAVING expressions against a GroupState."""

    def __init__(self, owner: MaintainedView, state: GroupState):
        self.owner = owner
        self.state = state
        self.key_map = dict(zip(owner.block.group_by, state.key))

    def value(self, expr: Expr):
        if isinstance(expr, Column):
            try:
                return self.key_map[expr]
            except KeyError:
                raise EvaluationError(
                    f"column {expr} is not a grouping column"
                ) from None
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, Aggregate):
            return self.state.aggregates[self.owner._agg_pos[expr]].value()
        if isinstance(expr, Arith):
            left = self.value(expr.left)
            right = self.value(expr.right)
            if left is None or right is None:
                return None
            return expr.op.apply(left, right)
        raise EvaluationError(f"cannot evaluate {expr}")

    def holds(self, atom: Comparison) -> bool:
        left = self.value(atom.left)
        right = self.value(atom.right)
        if left is None or right is None:
            return False
        return atom.op.holds(left, right)
