"""Canonical forms of query blocks, up to column renaming and FROM order.

Theorem 3.2's Church-Rosser property says rewriting with a set of views
yields *the same* result regardless of the order in which the views are
incorporated — "the same" up to the bookkeeping names our normalization
invents. This module computes a canonical key for a block so that tests
(and the multi-view search's deduplication) can compare rewritings
structurally.

:class:`BlockSet` is that deduplication: it computes a key only when two
blocks could be isomorphic, which most searches never meet.

Only FROM occurrences with the same relation name are interchangeable, so
the search over orders is the product of per-name permutation groups —
tiny for realistic queries.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from ..blocks.exprs import Aggregate, Arith, Expr
from ..blocks.query_block import QueryBlock
from ..blocks.terms import Column, Comparison, Constant
from ..memo import MISSING, shared


def _render_expr(expr: Expr, names: dict[Column, str]) -> str:
    if isinstance(expr, Column):
        return names.get(expr, f"?{expr.name}")
    if isinstance(expr, Constant):
        return str(expr)
    if isinstance(expr, Aggregate):
        return f"{expr.func}({_render_expr(expr.arg, names)})"
    if isinstance(expr, Arith):
        return (
            f"({_render_expr(expr.left, names)} {expr.op} "
            f"{_render_expr(expr.right, names)})"
        )
    raise TypeError(f"not an expression: {expr!r}")


def _render_atom(atom: Comparison, names: dict[Column, str]) -> str:
    norm = atom.normalized()
    left = _render_expr(norm.left, names)
    right = _render_expr(norm.right, names)
    if norm.op.value in ("=", "<>") and right < left:
        left, right = right, left
    return f"{left} {norm.op} {right}"


def _orderings(block: QueryBlock) -> Iterator[tuple[int, ...]]:
    """All FROM orders that permute only same-named occurrences, keeping
    the groups in sorted-name order."""
    by_name: dict[str, list[int]] = {}
    for i, rel in enumerate(block.from_):
        by_name.setdefault(rel.name, []).append(i)
    names = sorted(by_name)

    def expand(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == len(names):
            yield ()
            return
        for perm in permutations(by_name[names[pos]]):
            for rest in expand(pos + 1):
                yield tuple(perm) + rest

    yield from expand(0)


# QueryBlock is deeply frozen, so equality-keyed interning is safe: equal
# blocks (the same block object re-keyed during the search, or the same
# query re-parsed by repeated rewrite traffic) share one key string
# instead of re-running the permutation minimization.
_keys = shared("canonical_key", cap=8192)


def canonical_key(block: QueryBlock) -> str:
    """A string equal for blocks identical up to renaming / FROM order."""
    key = _keys.get(block)
    if key is MISSING:
        key = _canonical_key_uncached(block)
        _keys.put(block, key)
    return key


def _canonical_key_uncached(block: QueryBlock) -> str:
    best = None
    for order in _orderings(block):
        names: dict[Column, str] = {}
        from_render = []
        for slot, idx in enumerate(order):
            rel = block.from_[idx]
            for j, col in enumerate(rel.columns):
                names[col] = f"t{slot}.{j}"
            from_render.append(f"{rel.name}#{slot}")
        parts = [
            "FROM " + ",".join(from_render),
            "SELECT "
            + ";".join(
                _render_expr(item.expr, names) for item in block.select
            ),
            "WHERE "
            + ";".join(
                sorted(_render_atom(a, names) for a in block.where)
            ),
            "GROUP "
            + ";".join(sorted(names.get(c, c.name) for c in block.group_by)),
            "HAVING "
            + ";".join(
                sorted(_render_atom(a, names) for a in block.having)
            ),
            "DISTINCT" if block.distinct else "",
        ]
        key = "|".join(parts)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def blocks_isomorphic(left: QueryBlock, right: QueryBlock) -> bool:
    """Structural equality up to column renaming and FROM reordering."""
    return canonical_key(left) == canonical_key(right)


class BlockSet:
    """A set of blocks up to isomorphism, keyed only on collision.

    Isomorphic blocks have the same sorted FROM names (the key renders
    them first), so blocks are bucketed by those names and
    :func:`canonical_key` runs only once a second block lands in an
    occupied bucket. :meth:`add` answers exactly as a set of keys would.
    """

    def __init__(self, blocks: Iterable[QueryBlock] = ()):
        self._lone: dict[tuple[str, ...], QueryBlock] = {}
        self._keys: dict[tuple[str, ...], set[str]] = {}
        for block in blocks:
            self.add(block)

    def add(self, block: QueryBlock) -> bool:
        """Add ``block``; False when an isomorphic block is already in."""
        names = tuple(sorted(rel.name for rel in block.from_))
        keys = self._keys.get(names)
        if keys is None:
            lone = self._lone.pop(names, None)
            if lone is None:
                self._lone[names] = block
                return True
            keys = self._keys[names] = {canonical_key(lone)}
        key = canonical_key(block)
        if key in keys:
            return False
        keys.add(key)
        return True
