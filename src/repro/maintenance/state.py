"""Per-group incremental aggregate state.

The warehouse setting of the paper (Section 1; [BLT86, GMS93, JMS95])
keeps summary views materialized while the base tables change. This
module holds the per-group state that makes SUM/COUNT/AVG maintainable in
O(1) per delta row, and flags the cases (MIN/MAX losing their extremum)
where a group must be recomputed from base data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..blocks.exprs import AggFunc


@dataclass
class AggState:
    """Incremental state for one aggregate over one group."""

    func: AggFunc
    count: int = 0
    total: object = 0
    extremum: Optional[object] = None
    #: set when a deletion removed the current extremum; the group's
    #: maintainer must recompute from base data before reading.
    dirty: bool = False

    def insert(self, value) -> None:
        self.count += 1
        if self.func in (AggFunc.SUM, AggFunc.AVG):
            self.total = self.total + value
        elif self.func is AggFunc.MIN:
            if self.extremum is None or value < self.extremum:
                self.extremum = value
        elif self.func is AggFunc.MAX:
            if self.extremum is None or value > self.extremum:
                self.extremum = value

    def delete(self, value) -> None:
        self.count -= 1
        if self.func in (AggFunc.SUM, AggFunc.AVG):
            self.total = self.total - value
        elif self.func in (AggFunc.MIN, AggFunc.MAX):
            # Removing a non-extremal value never changes MIN/MAX; removing
            # the extremum may expose a different one, which only the base
            # data knows.
            if self.count == 0:
                self.extremum = None
                self.dirty = False
            elif value == self.extremum:
                self.dirty = True

    def value(self):
        """Current aggregate value; invalid while ``dirty``."""
        if self.count == 0:
            return 0 if self.func is AggFunc.COUNT else None
        if self.func is AggFunc.COUNT:
            return self.count
        if self.func is AggFunc.SUM:
            return self.total
        if self.func is AggFunc.AVG:
            if isinstance(self.total, int):
                return Fraction(self.total, self.count)
            return self.total / self.count
        if self.dirty:
            raise RuntimeError(
                "reading a dirty MIN/MAX state; recompute the group first"
            )
        return self.extremum


@dataclass
class GroupState:
    """All aggregate states for one group plus its membership count."""

    key: tuple
    multiplicity: int = 0
    aggregates: list[AggState] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.multiplicity <= 0

    @property
    def needs_recompute(self) -> bool:
        return any(a.dirty for a in self.aggregates)

    def copy(self) -> "GroupState":
        """A state that changes independently of this one."""
        return GroupState(
            self.key,
            self.multiplicity,
            [
                AggState(a.func, a.count, a.total, a.extremum, a.dirty)
                for a in self.aggregates
            ],
        )

    def insert(self, values: tuple) -> None:
        self.multiplicity += 1
        for state, value in zip(self.aggregates, values):
            state.insert(value)

    def delete(self, values: tuple) -> None:
        self.multiplicity -= 1
        for state, value in zip(self.aggregates, values):
            state.delete(value)
