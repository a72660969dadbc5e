"""Closure of conjunctions of comparison predicates.

The paper's usability conditions are checked "by comparing the closures of
``Conds(Q)`` and ``φ(Conds(V))``" (Section 3.1, footnote 2): for
conjunctions of ``=, <, <=, >=, >`` (we add ``<>``) over columns and
constants, the closure — the set of all entailed atomic predicates — has
size polynomial in the input and is computable in polynomial time.

The construction:

1. union-find over the terms merges equality classes (``=`` atoms);
2. order atoms become strict/non-strict edges between class
   representatives, plus the total order over comparable constants;
3. strongly connected components of the order graph collapse into further
   equalities (``A <= B <= A`` implies ``A = B``); a strict edge inside a
   component means unsatisfiability;
4. transitive reachability (tracking whether any edge on the path is
   strict) decides entailed inequalities; per-class constant bounds decide
   comparisons against constants that do not appear in the input.

Terms are columns and constants; HAVING atoms are supported by treating
aggregate expressions as opaque terms, which is exactly the paper's
treatment of "aggregation columns" in GConds.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from ..blocks.terms import Column, Comparison, Constant, Op
from ..memo import MISSING, shared

#: Anything usable as a closure node. Columns, constants and (for HAVING
#: reasoning) aggregate expressions are all frozen/hashable.
Node = Hashable


def _comparable(a: Constant, b: Constant) -> bool:
    """Constants are mutually ordered only within a type family."""
    numeric = (int, float)
    if isinstance(a.value, numeric) and isinstance(b.value, numeric):
        return True
    return isinstance(a.value, str) and isinstance(b.value, str)


class Closure:
    """The deductive closure of a conjunction of comparison atoms."""

    def __init__(self, atoms: Iterable[Comparison]):
        self.atoms: tuple[Comparison, ...] = tuple(atoms)
        self.satisfiable = True
        self._parent: dict[Node, Node] = {}
        self._edges: set[tuple[Node, Node, bool]] = set()  # (u, v, strict)
        self._ne: set[frozenset] = set()
        self._reach: dict[Node, dict[Node, bool]] = {}
        self._class_const: dict[Node, Constant] = {}
        self._build()

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------

    def _find(self, node: Node) -> Node:
        parent = self._parent
        if node not in parent:
            parent[node] = node
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, a: Node, b: Node) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        raw_edges: list[tuple[Node, Node, bool]] = []
        ne_pairs: list[tuple[Node, Node]] = []
        constants: set[Constant] = set()

        for atom in self.atoms:
            left, right = atom.left, atom.right
            for side in (left, right):
                self._find(side)
                if isinstance(side, Constant):
                    constants.add(side)
            op = atom.op
            if op is Op.EQ:
                self._union(left, right)
            elif op is Op.NE:
                ne_pairs.append((left, right))
            elif op in (Op.LT, Op.LE):
                raw_edges.append((left, right, op is Op.LT))
            else:  # GE, GT
                raw_edges.append((right, left, op is Op.GT))

        # The total order among comparable constants.
        const_list = sorted(constants, key=lambda c: (str(type(c.value)), str(c.value)))
        for i, c1 in enumerate(const_list):
            for c2 in const_list[i + 1 :]:
                if not _comparable(c1, c2):
                    continue
                if c1.value == c2.value:
                    self._union(c1, c2)
                elif c1.value < c2.value:
                    raw_edges.append((c1, c2, True))
                else:
                    raw_edges.append((c2, c1, True))

        # Collapse SCCs of the order graph until the DAG is stable.
        while True:
            edges = {
                (self._find(u), self._find(v), strict)
                for (u, v, strict) in raw_edges
            }
            edges = {(u, v, s) for (u, v, s) in edges if u != v or s}
            for u, v, strict in edges:
                if u == v and strict:
                    self.satisfiable = False
                    return
            merged = self._merge_cycles(edges)
            if not self.satisfiable:
                return
            if not merged:
                self._edges = edges
                break

        # Distinct constants in one class are a contradiction.
        for const in constants:
            rep = self._find(const)
            known = self._class_const.get(rep)
            if known is not None and known.value != const.value:
                self.satisfiable = False
                return
            self._class_const[rep] = const

        # Disequalities, after all merging.
        for left, right in ne_pairs:
            u, v = self._find(left), self._find(right)
            if u == v:
                self.satisfiable = False
                return
            self._ne.add(frozenset((u, v)))

        self._compute_reachability()
        if not self.satisfiable:
            return

        # x <= y with both classes pinned to contradictory constants is
        # already handled by constant-order edges; what remains is NE
        # against an equal pair via bounds: x != y entailed equal -> unsat
        for pair in self._ne:
            if len(pair) == 1:
                self.satisfiable = False
                return

    def _merge_cycles(self, edges: set[tuple[Node, Node, bool]]) -> bool:
        """Union every (non-strict) cycle; flag strict cycles unsat.

        Returns True when something merged (caller loops to a fixpoint).
        """
        adjacency: dict[Node, list[tuple[Node, bool]]] = {}
        nodes: set[Node] = set()
        for u, v, strict in edges:
            adjacency.setdefault(u, []).append((v, strict))
            nodes.add(u)
            nodes.add(v)

        index: dict[Node, int] = {}
        low: dict[Node, int] = {}
        on_stack: set[Node] = set()
        stack: list[Node] = []
        components: list[list[Node]] = []
        counter = [0]

        def strong_connect(root: Node) -> None:
            # Iterative Tarjan (recursion depth can exceed limits on long
            # chains of predicates).
            work = [(root, iter(adjacency.get(root, ())))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ, _strict in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(adjacency.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        for node in nodes:
            if node not in index:
                strong_connect(node)

        merged = False
        for component in components:
            if len(component) <= 1:
                continue
            members = set(component)
            for u, v, strict in edges:
                if strict and u in members and v in members:
                    self.satisfiable = False
                    return False
            first = component[0]
            for other in component[1:]:
                self._union(first, other)
            merged = True
        return merged

    def _compute_reachability(self) -> None:
        adjacency: dict[Node, list[tuple[Node, bool]]] = {}
        for u, v, strict in self._edges:
            adjacency.setdefault(u, []).append((v, strict))
        for start in list(adjacency):
            # BFS recording the best (strictest) path label to each node.
            best: dict[Node, bool] = {}
            frontier: list[tuple[Node, bool]] = [(start, False)]
            while frontier:
                node, strict = frontier.pop()
                for succ, edge_strict in adjacency.get(node, ()):  # noqa: B023
                    label = strict or edge_strict
                    if succ not in best or (label and not best[succ]):
                        best[succ] = label
                        frontier.append((succ, label))
            if best.get(start):
                self.satisfiable = False
            best.pop(start, None)
            self._reach[start] = best

    # ------------------------------------------------------------------
    # Low-level relations between class representatives
    # ------------------------------------------------------------------

    def _le(self, u: Node, v: Node) -> bool:
        if u == v:
            return True
        return v in self._reach.get(u, ())

    def _lt(self, u: Node, v: Node) -> bool:
        reach = self._reach.get(u, {})
        if reach.get(v):
            return True
        if self._le(u, v) and self._ne_reps(u, v):
            return True
        return self._bounds_separate(u, v)

    def _ne_reps(self, u: Node, v: Node) -> bool:
        if u == v:
            return False
        if frozenset((u, v)) in self._ne:
            return True
        cu, cv = self._class_const.get(u), self._class_const.get(v)
        if cu is not None and cv is not None and cu.value != cv.value:
            return True
        if self._reach.get(u, {}).get(v) or self._reach.get(v, {}).get(u):
            return True
        return self._bounds_separate(u, v) or self._bounds_separate(v, u)

    def _bounds_separate(self, u: Node, v: Node) -> bool:
        """True when upper(u) < lower(v) proves u < v via constants."""
        upper = self.upper_bound_rep(u)
        lower = self.lower_bound_rep(v)
        if upper is None or lower is None:
            return False
        uv, us = upper
        lv, ls = lower
        try:
            if uv < lv:
                return True
            return uv == lv and (us or ls)
        except TypeError:
            return False

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------

    def lower_bound_rep(self, rep: Node) -> Optional[tuple[object, bool]]:
        """Best known constant lower bound ``(value, strict)`` of a class."""
        best: Optional[tuple[object, bool]] = None
        const = self._class_const.get(rep)
        if const is not None:
            best = (const.value, False)
        for crep, constant in self._class_const.items():
            if crep == rep:
                continue
            strict = self._reach.get(crep, {}).get(rep)
            if strict is None:
                continue
            candidate = (constant.value, bool(strict))
            best = _max_bound(best, candidate)
        return best

    def upper_bound_rep(self, rep: Node) -> Optional[tuple[object, bool]]:
        """Best known constant upper bound ``(value, strict)`` of a class."""
        best: Optional[tuple[object, bool]] = None
        const = self._class_const.get(rep)
        if const is not None:
            best = (const.value, False)
        for crep, constant in self._class_const.items():
            if crep == rep:
                continue
            strict = self._reach.get(rep, {}).get(crep)
            if strict is None:
                continue
            candidate = (constant.value, bool(strict))
            best = _min_bound(best, candidate)
        return best

    def bounds(self, term: Node) -> tuple[Optional[tuple], Optional[tuple]]:
        """(lower, upper) constant bounds of a term, each (value, strict)."""
        # Don't use _find directly: it would register an unknown term in
        # the union-find, mutating an instance that may be shared through
        # the closure cache.
        rep = self._find(term) if term in self._parent else term
        return self.lower_bound_rep(rep), self.upper_bound_rep(rep)

    # ------------------------------------------------------------------
    # Entailment
    # ------------------------------------------------------------------

    def entails(self, atom: Comparison) -> bool:
        """Does this conjunction entail ``atom``?

        Sound and (for atoms over the input's terms and constants) complete
        for the equality/order language; an unsatisfiable conjunction
        entails everything.
        """
        if not self.satisfiable:
            return True
        norm = atom.normalized()
        left, op, right = norm.left, norm.op, norm.right

        if isinstance(left, Constant) and isinstance(right, Constant):
            if not _comparable(left, right):
                return op is Op.NE and left.value != right.value
            return op.holds(left.value, right.value)

        known_left = left in self._parent
        known_right = right in self._parent
        if known_left and known_right:
            u, v = self._find(left), self._find(right)
            if op is Op.EQ:
                return u == v
            if op is Op.NE:
                return self._ne_reps(u, v)
            if op is Op.LE:
                return self._le(u, v) or self._lt(u, v)
            return self._lt(u, v)

        # One side is a constant the input never mentions: decide by bounds.
        if isinstance(right, Constant) and known_left:
            return self._entails_vs_const(self._find(left), op, right, flip=False)
        if isinstance(left, Constant) and known_right:
            return self._entails_vs_const(self._find(right), op, left, flip=True)

        # An unknown term: only reflexive facts hold.
        if left == right:
            return op in (Op.EQ, Op.LE)
        return False

    def _entails_vs_const(
        self, rep: Node, op: Op, const: Constant, flip: bool
    ) -> bool:
        """Decide ``class(rep) op const`` (or flipped) using bounds."""
        if flip:
            op = op.flipped
        lower, upper = self.lower_bound_rep(rep), self.upper_bound_rep(rep)
        pinned = self._class_const.get(rep)
        value = const.value
        try:
            if op is Op.EQ:
                return pinned is not None and pinned.value == value
            if op is Op.NE:
                if pinned is not None and pinned.value != value:
                    return True
                if lower is not None and _bound_gt(lower, value):
                    return True
                return upper is not None and _bound_lt(upper, value)
            if op is Op.LE:
                return upper is not None and (
                    upper[0] < value or (upper[0] == value)
                )
            if op is Op.LT:
                return upper is not None and _bound_lt(upper, value)
            if op is Op.GE:
                return lower is not None and (
                    lower[0] > value or (lower[0] == value)
                )
            return lower is not None and _bound_gt(lower, value)
        except TypeError:
            return False

    def entails_all(self, atoms: Iterable[Comparison]) -> bool:
        return all(self.entails(atom) for atom in atoms)

    # ------------------------------------------------------------------
    # Queries used by the rewriting conditions
    # ------------------------------------------------------------------

    def equal(self, a: Node, b: Node) -> bool:
        """Entailed equality of two terms (condition C2's test)."""
        if not self.satisfiable:
            return True
        if a == b:
            return True
        if a not in self._parent or b not in self._parent:
            return False
        return self._find(a) == self._find(b)

    def equality_class(self, term: Node) -> frozenset:
        """All input terms entailed equal to ``term``."""
        if term not in self._parent:
            return frozenset((term,))
        rep = self._find(term)
        return frozenset(
            t for t in self._parent if self._find(t) == rep
        )

    def constant_of(self, term: Node) -> Optional[Constant]:
        """The constant a term is pinned to, when entailed."""
        if term not in self._parent:
            return term if isinstance(term, Constant) else None
        return self._class_const.get(self._find(term))

    def terms(self) -> frozenset:
        return frozenset(self._parent)

    def entailed_atoms_over(self, allowed: Sequence[Node]) -> list[Comparison]:
        """All entailed atoms whose sides come from ``allowed``.

        This is the closure restricted to a term vocabulary — the candidate
        ``Conds'`` of condition C3 (see :mod:`repro.constraints.residual`).
        Redundant weaker atoms (``<=`` when ``<`` holds, ``<>`` when ``<``
        holds) are skipped. A satisfiable closure entails nothing of a
        term it never saw (only the reflexive facts, and the items are
        distinct), so only constants and its own terms are paired.
        """
        out: list[Comparison] = []
        items = list(dict.fromkeys(allowed))
        if self.satisfiable:
            known = self._parent
            items = [
                t for t in items if t in known or isinstance(t, Constant)
            ]
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                if isinstance(a, Constant) and isinstance(b, Constant):
                    continue  # tautological or absurd; never needed
                if self.entails(Comparison(a, Op.EQ, b)):
                    out.append(Comparison(a, Op.EQ, b))
                    continue
                if self.entails(Comparison(a, Op.LT, b)):
                    out.append(Comparison(a, Op.LT, b))
                elif self.entails(Comparison(b, Op.LT, a)):
                    out.append(Comparison(b, Op.LT, a))
                else:
                    if self.entails(Comparison(a, Op.LE, b)):
                        out.append(Comparison(a, Op.LE, b))
                    if self.entails(Comparison(b, Op.LE, a)):
                        out.append(Comparison(b, Op.LE, a))
                    if self.entails(Comparison(a, Op.NE, b)):
                        out.append(Comparison(a, Op.NE, b))
        return out

    def __len__(self) -> int:
        """Number of entailed atoms over the input terms (footnote 2)."""
        return len(self.entailed_atoms_over(sorted(self.terms(), key=str)))


def _max_bound(a, b):
    if a is None:
        return b
    try:
        if b[0] > a[0] or (b[0] == a[0] and b[1] and not a[1]):
            return b
    except TypeError:
        return a
    return a


def _min_bound(a, b):
    if a is None:
        return b
    try:
        if b[0] < a[0] or (b[0] == a[0] and b[1] and not a[1]):
            return b
    except TypeError:
        return a
    return a


def _bound_lt(bound, value) -> bool:
    """upper bound (v, strict) proves term < value."""
    v, strict = bound
    return v < value or (v == value and strict)


def _bound_gt(bound, value) -> bool:
    """lower bound (v, strict) proves term > value."""
    v, strict = bound
    return v > value or (v == value and strict)


# ----------------------------------------------------------------------
# Closure cache
# ----------------------------------------------------------------------
#
# The rewriting conditions rebuild the closure of the same conjunction
# over and over: every candidate mapping of every view re-checks C2/C3
# against Closure(Conds(Q)), and repeated rewrite traffic (the semantic
# cache) re-derives identical closures per lookup. A conjunction's
# closure depends only on the *set* of its atoms, so a bounded LRU keyed
# on that frozen set lets all of them share one instance. Closure objects
# are immutable after construction (union-find path compression aside),
# which makes the sharing safe.

_closures = shared("closure", cap=4096)


def closure_of(atoms: Iterable[Comparison]) -> Closure:
    """A (possibly shared) :class:`Closure` of the given conjunction.

    Drop-in replacement for ``Closure(atoms)`` on hot paths: entailment
    is order- and duplicate-insensitive, so conjunctions with the same
    atom set share one cached instance.
    """
    atom_tuple = tuple(atoms)
    key = frozenset(atom_tuple)
    closure = _closures.get(key)
    if closure is MISSING:
        closure = Closure(atom_tuple)
        _closures.put(key, closure)
    return closure
