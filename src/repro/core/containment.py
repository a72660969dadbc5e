"""Conjunctive-query containment and multiset equivalence.

Section 6 contrasts this paper with [LMSS95] (set semantics): under set
semantics, view usability reduces to query *containment*, decided by
containment mappings (homomorphisms); under SQL's multiset semantics the
connection "does not carry over" — multiset equivalence of conjunctive
queries requires an *isomorphism* ([CV93], the paper's basis for
condition C1). This module makes both notions executable:

* :func:`homomorphisms` — the containment-mapping search itself, with
  explicit pins (the Cohen–Nutt MIN/MAX check runs on it too);
* :func:`contained_in` — set-semantics containment via containment
  mappings (sound and complete for equality-only predicates; sound for
  the full comparison language);
* :func:`set_equivalent` — mutual containment;
* :func:`multiset_equivalent` — isomorphism per [CV93].

Together with the engine oracle this lets tests *demonstrate* the
paper's motivating gap: pairs of queries that are set-equivalent but not
multiset-equivalent.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..blocks.query_block import QueryBlock
from ..blocks.terms import Column
from ..constraints.closure import Closure, closure_of
from ..constraints.implication import equivalent
from ..errors import UnsupportedSQLError
from ..mappings.column_mapping import ColumnMapping
from ..mappings.enumerate_mappings import enumerate_mappings
from ..obs.budget import BudgetMeter


def _require_conjunctive(block: QueryBlock, role: str) -> None:
    if not block.is_conjunctive:
        raise UnsupportedSQLError(
            f"{role} must be a conjunctive query (no grouping/aggregation)"
        )
    for item in block.select:
        if not isinstance(item.expr, Column):
            raise UnsupportedSQLError(
                f"{role} must select plain columns"
            )


def homomorphisms(
    source: QueryBlock,
    target: QueryBlock,
    pins: Iterable[tuple[Column, Column]] = (),
    meter: Optional[BudgetMeter] = None,
) -> Iterator[ColumnMapping]:
    """Homomorphisms from ``source``'s core into ``target``'s.

    The classical containment test, modulo the constraint closure: a
    many-to-1 occurrence assignment under which every source atom is
    entailed by the target's closure and every pinned source column
    lands on (a closure-equal of) its paired target column. Existence
    proves answers(target) ⊆ answers(source) on the pinned columns,
    under set semantics. ``meter`` bounds the enumeration.
    """
    pins = tuple(pins)
    closure = closure_of(target.where)
    for mapping in enumerate_mappings(
        source, target, many_to_one=True, meter=meter
    ):
        if not closure.entails_all(mapping.apply_atoms(source.where)):
            continue
        if all(closure.equal(mapping.apply(s), t) for s, t in pins):
            yield mapping


def containment_mappings(
    container: QueryBlock, contained: QueryBlock
) -> Iterator[ColumnMapping]:
    """Containment mappings witnessing ``contained ⊆ container``.

    A containment mapping sends ``container``'s columns into
    ``contained``'s such that the mapped conditions are entailed and the
    mapped SELECT list matches position-wise (up to entailed equality):
    a :func:`homomorphisms` witness with the SELECT pairs as pins.
    """
    _require_conjunctive(container, "container")
    _require_conjunctive(contained, "contained")
    if len(container.select) != len(contained.select):
        return
    yield from homomorphisms(
        container,
        contained,
        pins=[
            (c_item.expr, q_item.expr)
            for c_item, q_item in zip(container.select, contained.select)
        ],
    )


def contained_in(left: QueryBlock, right: QueryBlock) -> bool:
    """Set-semantics containment ``left ⊆ right``.

    Complete for equality-only predicates (the classical theorem); sound
    in general.
    """
    return next(containment_mappings(right, left), None) is not None


def set_equivalent(left: QueryBlock, right: QueryBlock) -> bool:
    """Set-semantics equivalence: mutual containment."""
    return contained_in(left, right) and contained_in(right, left)


def multiset_equivalent(left: QueryBlock, right: QueryBlock) -> bool:
    """Multiset equivalence of conjunctive queries per [CV93]:
    a 1-1 (bijective) table mapping under which the conditions are
    equivalent and the SELECT lists agree position-wise."""
    _require_conjunctive(left, "left")
    _require_conjunctive(right, "right")
    if len(left.select) != len(right.select):
        return False
    if len(left.from_) != len(right.from_):
        return False
    closure_right = Closure(right.where)
    for mapping in enumerate_mappings(left, right, many_to_one=False):
        mapped = mapping.apply_atoms(left.where)
        # Conditions must be *equivalent*, not merely entailed —
        # otherwise the two core-table multisets differ.
        if not equivalent(list(mapped), list(right.where)):
            continue
        heads = all(
            closure_right.equal(mapping.apply(li.expr), ri.expr)
            for li, ri in zip(left.select, right.select)
        )
        if heads:
            return True
    return False
