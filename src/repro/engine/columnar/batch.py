"""Columnar batches: dict-of-columns data plus zero-copy selection vectors.

A :class:`Batch` is the columnar counterpart of the row engine's
``list[Row]`` core table. It never stores row tuples; instead it holds
*sources* — ``(columns, positions)`` pairs where ``columns`` maps each
bound :class:`~repro.blocks.terms.Column` to the underlying column list
of its base table (or materialized view) and ``positions`` is a
selection vector of row indices into those lists (``None`` meaning the
identity selection, i.e. the whole column untouched).

Filters therefore never copy data: they compose position vectors. A
hash join produces one pair of parallel position vectors (probe-side and
build-side match indices) and the joined batch simply carries both
sources. Actual cell values are gathered lazily — and cached — only for
the columns a kernel asks for, which for a typical aggregation query is
a small fraction of the joined width.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...blocks.terms import Column
from ...errors import EvaluationError

#: A selection vector: row indices into a source's column lists.
Positions = Optional[list]


class Batch:
    """A multiset of rows in columnar form (see module docstring)."""

    __slots__ = ("length", "sources", "_gathered")

    def __init__(self, length: int, sources: list):
        self.length = length
        #: list of (columns: dict[Column, list], positions: Positions)
        self.sources = sources
        self._gathered: dict[Column, list] = {}

    @classmethod
    def from_columns(cls, columns: dict, length: int) -> "Batch":
        """A batch over one relation's columns, identity selection."""
        return cls(length, [(columns, None)])

    @classmethod
    def empty(cls, column_sets: Sequence[Sequence[Column]]) -> "Batch":
        """A zero-row batch that still binds every given column.

        Used when a constant-false predicate short-circuits the whole
        core table: downstream kernels must still resolve columns (to
        zero values), but no data need ever be scanned.
        """
        sources = [
            ({col: [] for col in cols}, None) for cols in column_sets
        ]
        return cls(0, sources)

    # ------------------------------------------------------------------

    def column(self, col: Column) -> list:
        """The gathered values of ``col``, one per batch row (cached)."""
        cached = self._gathered.get(col)
        if cached is not None:
            return cached
        for columns, positions in self.sources:
            data = columns.get(col)
            if data is not None:
                if positions is None:
                    gathered = data
                else:
                    gathered = [data[p] for p in positions]
                self._gathered[col] = gathered
                return gathered
        raise EvaluationError(f"unbound column {col}")

    def common_source(self, cols: Sequence[Column]):
        """The ``(columns, positions)`` source holding *all* of ``cols``.

        Returns ``None`` when the columns are spread across sources (or
        the list is empty). Grouping uses this to key groups by source
        position — one int per row — instead of materializing a key
        tuple per row.
        """
        if not cols:
            return None
        for source in self.sources:
            columns = source[0]
            if all(c in columns for c in cols):
                return source
        return None

    # ------------------------------------------------------------------

    def select(self, keep: list) -> "Batch":
        """The sub-batch at row indices ``keep`` (zero-copy compose)."""
        sources = []
        for columns, positions in self.sources:
            if positions is None:
                # Share ``keep`` across all identity sources: selection
                # vectors are immutable once built.
                sources.append((columns, keep))
            else:
                sources.append((columns, [positions[i] for i in keep]))
        return Batch(len(keep), sources)

    def join(
        self, other: "Batch", my_idx: Positions, other_idx: Positions
    ) -> "Batch":
        """The batch of matched row pairs (``my_idx[i]`` with ``other_idx[i]``).

        Either index may be ``None``, meaning the identity selection on
        that side (every row matched, in order) — its sources are
        carried over untouched, so no position vector is rewritten and
        previously gathered columns stay gathered.
        """
        length = len(my_idx) if my_idx is not None else len(other_idx)
        sources = []
        for columns, positions in self.sources:
            if my_idx is None:
                sources.append((columns, positions))
            elif positions is None:
                sources.append((columns, my_idx))
            else:
                sources.append((columns, [positions[i] for i in my_idx]))
        for columns, positions in other.sources:
            if other_idx is None:
                sources.append((columns, positions))
            elif positions is None:
                sources.append((columns, other_idx))
            else:
                sources.append(
                    (columns, [positions[i] for i in other_idx])
                )
        joined = Batch(length, sources)
        # An identity side's rows are unchanged and in order, so its
        # gather cache stays valid for the joined batch.
        if my_idx is None:
            joined._gathered.update(self._gathered)
        if other_idx is None:
            joined._gathered.update(other._gathered)
        return joined

    def cross(self, other: "Batch") -> "Batch":
        """The Cartesian product with ``other`` (position vectors only)."""
        n, m = self.length, other.length
        my_idx = [i for i in range(n) for _ in range(m)]
        other_idx = list(range(m)) * n
        return self.join(other, my_idx, other_idx)

    def rows(self, columns: Sequence[Column]) -> list:
        """Materialize row tuples for the given columns (final output)."""
        if not columns:
            return [()] * self.length
        gathered = [self.column(c) for c in columns]
        if len(gathered) == 1:
            return [(v,) for v in gathered[0]]
        return list(zip(*gathered))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Batch({self.length} rows, {len(self.sources)} sources)"
