"""The rewrite planner: indexed and memoized multi-view search.

:func:`repro.core.multiview.all_rewritings` is candidate generation plus
verification (the framing of Cohen & Nutt's rewriting algorithms): every
BFS node is matched against every view, each match enumerates column
mappings, and each mapping re-derives predicate closures and canonical
keys. This module makes that search fast without changing its result set:

view-signature index
    Per view, the multiset of FROM relation names and arities (plus its
    conjunctive/aggregation class, kept for diagnostics). A 1-1 column
    mapping (condition C1) requires the view's FROM multiset to be
    contained in the node's FROM multiset — many-to-1 mappings (set
    semantics, Section 5.2) need only set containment — so views failing
    the containment test are skipped before any backtracking happens.

coverage prefilter
    Where a view's table names occur once in it and once in the node,
    the only mapping is fixed by the names, and parts of C2/C2', C3/C3'
    and C4/C4' read nothing but (table, column position) sets: what the
    view exports (:class:`ViewCoverage`, built with the signature) and
    what the node needs (:class:`QueryCoverage`, built once per node).
    A view that misses one of those keys is rejected before mapping
    enumeration, and the pair is memoized as ``[]`` — what the full
    check would have stored. DESIGN.md lists the keys and where each
    one admits.

memoization
    Canonical keys are interned (:mod:`repro.core.canonical`) and
    predicate closures are shared (:func:`repro.constraints.closure
    .closure_of`), so repeated C2/C3 entailment work across mappings,
    nodes and queries is paid once. Those, the C3 residuals and this
    module's per-planner families are all :class:`repro.memo.Memo`
    instances behind one switch.

incremental maximality bookkeeping
    The naive search decides ``include_partial=False`` by re-running
    ``single_view_rewritings`` over *every* result after the fact. The
    planner records, while expanding each node, whether any view offered
    an expansion; only nodes the step bound left unexpanded are probed
    lazily.

The naive path stays callable (``all_rewritings(use_planner=False)``)
and :func:`repro.memo.disabled` additionally switches the memoization
caches off, so A/B benchmarks can reproduce the pre-planner behavior exactly.
Result-set parity between the two paths is asserted by
``tests/core/test_planner_parity.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from ..blocks.exprs import AggFunc, Aggregate, aggregates_in
from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.terms import Column, Op
from ..catalog.schema import Catalog
from ..constraints.closure import Closure, closure_of
from ..constraints.having import normalize_having
from ..memo import MISSING, Memo, shared_memos
from ..obs.budget import BudgetMeter, SearchBudget, ensure_meter
from ..obs.metrics import _ACTIVE, counter, current_metrics
from ..obs.trace import span
from .canonical import BlockSet
from .common import view_is_rewritable
from .result import Rewriting

SEARCHES = counter(
    "repro_planner_searches_total", "Planned multi-view rewrite searches run."
)
NODES_EXPANDED = counter(
    "repro_planner_nodes_expanded_total",
    "BFS nodes expanded by the rewrite planner.",
)
VIEWS = counter(
    "repro_planner_views_total",
    "View applicability probes, by signature-index outcome.",
    ("outcome",),
)
CANDIDATES = counter(
    "repro_planner_candidates_total",
    "Candidate rewritings generated, kept vs duplicate-pruned.",
    ("outcome",),
)
MAXIMALITY_PROBES = counter(
    "repro_planner_maximality_probes_total",
    "Lazy maximality probes on nodes the step bound left unexpanded.",
)
RESULTS = counter(
    "repro_planner_results_total", "Rewritings returned by planner searches."
)
MEMO_LOOKUPS = counter(
    "repro_planner_memo_total",
    "Planner memo lookups, by memo family and hit/miss outcome.",
    ("family", "outcome"),
)


def _from_counts(block: QueryBlock) -> Counter:
    """The FROM multiset of a block: (relation name, arity) -> count."""
    return Counter((rel.name, len(rel.columns)) for rel in block.from_)


_MERGE = None


def _resolve_merge():
    # multiview imports this module, so _merge cannot be a top-level
    # import; resolve it once instead of per _merge_options call.
    global _MERGE
    if _MERGE is None:
        from .multiview import _merge

        _MERGE = _merge
    return _MERGE


#: A base-table column by name and position: under the one mapping a
#: view with distinct table names has, a view column and its image
#: share it.
Position = tuple[str, int]


class ViewCoverage:
    """The view side of the coverage prefilter: what a view exports, by
    :data:`Position`.

    Built only for a view in the rewriting class whose table names are
    distinct (:meth:`of` returns ``None`` otherwise). ``exported`` is
    ColSel(V); ``sources[func]`` the positions C4' part 1 can compute
    ``func`` of a covered column from; ``constrained`` the columns
    Conds(V) mentions; ``opaque`` the view's columns that are neither,
    which a residual can never read. Conds(V) is the HAVING-normalized
    WHERE the checks read.
    """

    __slots__ = (
        "aggregation", "tables", "exported", "counted", "sources",
        "constrained", "opaque", "_where", "_satisfiable",
    )

    @classmethod
    def of(cls, view: ViewDef) -> Optional["ViewCoverage"]:
        names = [rel.name for rel in view.block.from_]
        if len(set(names)) != len(names) or not view_is_rewritable(view):
            return None
        return cls(view)

    def __init__(self, view: ViewDef):
        block = view.block
        self.aggregation = block.is_aggregation
        if block.having:
            block = normalize_having(block)
        position = _positions(block)
        columns: set = set()
        outputs: dict = {}
        for item in block.select:
            expr = item.expr
            if type(expr) is Column:
                columns.add(position[expr])
            else:  # AGG(column): view_is_rewritable admits nothing else
                outputs.setdefault(expr.func, set()).add(position[expr.arg])
        get = outputs.get
        sums, avgs = get(AggFunc.SUM, ()), get(AggFunc.AVG, ())
        self.tables = frozenset(rel.name for rel in block.from_)
        self.exported = frozenset(columns)
        self.counted = AggFunc.COUNT in outputs
        # Step S4': MIN/MAX of the column or of that function's output;
        # SUM of a SUM output, or N-weighted of the column or an AVG
        # output; AVG (which needs N anyway) of any of the three.
        self.sources = {
            AggFunc.MIN: columns.union(get(AggFunc.MIN, ())),
            AggFunc.MAX: columns.union(get(AggFunc.MAX, ())),
            AggFunc.SUM: (
                columns.union(sums, avgs) if self.counted else set(sums)
            ),
            AggFunc.AVG: columns.union(sums, avgs),
        }
        self.constrained = {
            position[side]
            for atom in block.where
            for side in (atom.left, atom.right)
            if type(side) is Column
        }
        self.opaque = set(position.values())
        self.opaque -= columns
        self.opaque -= self.constrained
        self._where = block.where
        self._satisfiable = None

    def satisfiable(self) -> bool:
        """Is Conds(V) satisfiable? Read through the closure memo, on a
        rejection only: an unsatisfiable Conds(V) makes every view
        column equal, which the C4' keys do not model."""
        if self._satisfiable is None:
            self._satisfiable = (
                not self._where or closure_of(self._where).satisfiable
            )
        return self._satisfiable


@dataclass(frozen=True)
class ViewSignature:
    """What a view needs from a query's FROM clause to be applicable.

    ``relations`` lists ``((name, arity), count)`` sorted by name; the
    class flag mirrors which rewriting path (Section 3 vs Section 4)
    the view takes, for diagnostics and the benchmark report.
    ``coverage`` is the view's side of the coverage prefilter, ``None``
    where it has none.
    """

    relations: tuple[tuple[tuple[str, int], int], ...]
    is_conjunctive: bool
    coverage: Optional[ViewCoverage] = field(default=None, compare=False)

    @classmethod
    def of(cls, view: ViewDef) -> "ViewSignature":
        counts = _from_counts(view.block)
        return cls(
            relations=tuple(sorted(counts.items())),
            is_conjunctive=view.block.is_conjunctive,
            coverage=ViewCoverage.of(view),
        )

    def admits(self, query_counts: Counter, many_to_one: bool) -> bool:
        """Can any column mapping from the view into a query with these
        FROM counts exist?  Multiset containment is necessary for 1-1
        mappings; set containment suffices when many-to-1 mappings are
        also admissible."""
        for key, count in self.relations:
            available = query_counts.get(key, 0)
            if available == 0:
                return False
            if not many_to_one and available < count:
                return False
        return True


def _positions(block: QueryBlock) -> dict[Column, Position]:
    return {
        column: (rel.name, index)
        for rel in block.from_
        for index, column in enumerate(rel.columns)
    }


class QueryCoverage:
    """The node side of the coverage prefilter: what any view must
    export to answer one query block (built once per BFS node).

    ``grouped`` lists the grouping and ColSel columns, ``aggregates``
    the ``(func, column)`` of each ``AGG(column)``, and ``constrained``
    the positions Conds(Q) constrains. A column is served by a view
    output at its own position or at one Conds(Q) equates it to. Those
    classes and the satisfiability of Conds(Q) come from its closure,
    read through ``closure_of`` (the memo the checks read next) only
    when a column is not served at its own position, or before a
    rejection. An unsatisfiable Conds(Q) admits everything.
    """

    __slots__ = (
        "query", "keyed", "aggregation", "repeated", "position",
        "grouped", "constrained", "aggregates", "compound", "_classes",
        "_closure_q",
    )

    def __init__(self, block: QueryBlock):
        query = self.query = normalize_having(block)
        self._classes: dict = {}
        self._closure_q: Optional[Closure] = None
        # One pass over SELECT. In scope only when every item is a
        # column or a single aggregate (``select_is_plain``).
        columns, aggregates = [], []
        for item in query.select:
            expr = item.expr
            if isinstance(expr, Column):
                columns.append(expr)
            elif isinstance(expr, Aggregate):
                aggregates.append(expr)
            else:
                self.keyed = False
                return
        self.keyed = True
        self.aggregation = bool(aggregates or query.group_by or query.having)
        for atom in query.having:
            aggregates.extend(aggregates_in(atom.left))
            aggregates.extend(aggregates_in(atom.right))
        names: set = set()
        repeated = self.repeated = set()
        for rel in query.from_:
            (repeated if rel.name in names else names).add(rel.name)
        position = self.position = _positions(query)
        self.grouped = tuple(dict.fromkeys(query.group_by + tuple(columns)))
        # Columns in an atom whose sides differ (``A = A`` constrains
        # nothing).
        constrained = self.constrained = set()
        for atom in query.where:
            left, right = atom.left, atom.right
            if type(left) is Column:
                if type(right) is Column:
                    if left.name == right.name:
                        continue
                    constrained.add(position[right])
                constrained.add(position[left])
            elif type(right) is Column:
                constrained.add(position[right])
        self.compound = any(type(agg.arg) is not Column for agg in aggregates)
        self.aggregates = [
            (agg.func, agg.arg) for agg in aggregates if not self.compound
        ]

    def _closure(self) -> Closure:
        if self._closure_q is None:
            self._closure_q = closure_of(self.query.where)
        return self._closure_q

    def satisfiable(self) -> bool:
        return self._closure().satisfiable

    def equated(self, column: Column) -> frozenset:
        """The positions of the columns Conds(Q) equates ``column`` to
        (every position when Conds(Q) is unsatisfiable)."""
        found = self._classes.get(column)
        if found is None:
            closure = self._closure()
            if closure.satisfiable:
                found = frozenset(
                    self.position[term]
                    for term in closure.equality_class(column)
                    if type(term) is Column
                )
            else:
                found = frozenset(self.position.values())
            self._classes[column] = found
        return found

    def _served(self, column: Column, sources) -> bool:
        """Is ``column``, or a column Conds(Q) equates it to, at one of
        ``sources``? An ``=`` atom to a column there answers before the
        closure is read."""
        position = self.position
        if position[column] in sources:
            return True
        for atom in self.query.where:
            if atom.op is Op.EQ:
                if atom.left == column:
                    other = atom.right
                elif atom.right == column:
                    other = atom.left
                else:
                    continue
                if type(other) is Column and position[other] in sources:
                    return True
        return not self.equated(column).isdisjoint(sources)

    def missed_by(self, view: ViewCoverage) -> Optional[str]:
        """The condition (``"C2"``..``"C4'"``, as the rewriter's reports
        name it) whose key ``view`` misses, or ``None`` to admit it.

        Admits wherever the checks stop before C2-C4 (scope, Section
        4.5, an unsatisfiable Conds(Q)) and wherever the mapping is not
        fixed by names (a view table repeated in the node).
        """
        if not self.keyed or not view.tables.isdisjoint(self.repeated):
            return None
        if view.aggregation:
            if not self.aggregation:
                return None  # Section 4.5 refuses before C2'
            missed = self._missed_aggregation(view)
        else:
            missed = self._missed_conjunctive(view)
        if missed is None or not self.satisfiable():
            return None
        return missed

    def _missed_common(self, view: ViewCoverage, prime: str) -> Optional[str]:
        tables, exported, position = view.tables, view.exported, self.position
        for column in self.grouped:
            # C2/C2': a covered grouping or ColSel column needs an
            # exported column Conds(Q) equates it to.
            if position[column][0] in tables and not self._served(
                column, exported
            ):
                return "C2" + prime
        # C3/C3': the residual reads only exported columns and φ(Conds(V))
        # only the columns Conds(V) mentions; a constraint on any other
        # covered column cannot be entailed.
        if not view.opaque.isdisjoint(self.constrained):
            return "C3" + prime
        return None

    def _missed_conjunctive(self, view: ViewCoverage) -> Optional[str]:
        if self.compound:
            return "C4"  # refused at the first compound argument
        missed = self._missed_common(view, "")
        if missed is not None:
            return missed
        for func, column in self.aggregates:
            # C4 part 1: COUNT can count any output; the rest need the
            # aggregated column to survive.
            if (
                func is not AggFunc.COUNT
                and self.position[column][0] in view.tables
                and not self._served(column, view.exported)
            ):
                return "C4"
        return None

    def _missed_aggregation(self, view: ViewCoverage) -> Optional[str]:
        if self.compound:
            return "C4'"
        missed = self._missed_common(view, "'")
        if missed is not None:
            return missed
        for func, column in self.aggregates:
            covered = self.position[column][0] in view.tables
            # COUNT, AVG and C4' part 2 (SUM over an uncovered column)
            # read the multiplicities off the view's COUNT output.
            if not view.counted and (
                func is AggFunc.COUNT
                or func is AggFunc.AVG
                or (func is AggFunc.SUM and not covered)
            ):
                return "C4'"
            if not covered or func is AggFunc.COUNT:
                continue
            # C4' part 1 reads Conds(V) equalities: admit when Conds(V)
            # mentions a preimage, or cannot be satisfied.
            if (
                not self._served(column, view.sources[func])
                and self.equated(column).isdisjoint(view.constrained)
                and view.satisfiable()
            ):
                return "C4'"
        return None


@dataclass
class PlannerStats:
    """Counters from one or more planned searches (benchmark surface)."""

    #: The planner's substitution memo: ``substitution_hits`` / ``_misses``
    #: are its counters, read here rather than counted a second time.
    substitution: Memo
    searches: int = 0
    nodes_expanded: int = 0
    views_considered: int = 0
    views_pruned: int = 0
    candidates_generated: int = 0
    duplicates_skipped: int = 0
    maximality_probes: int = 0

    @property
    def substitution_hits(self) -> int:
        return self.substitution.hits

    @property
    def substitution_misses(self) -> int:
        return self.substitution.misses


class _Node:
    """One BFS node plus its maximality bookkeeping."""

    __slots__ = ("rewriting", "block", "probed", "expandable")

    def __init__(self, rewriting: Optional[Rewriting], block: QueryBlock):
        self.rewriting = rewriting
        self.block = block
        self.probed = False      # were this node's expansions attempted?
        self.expandable = False  # did any view offer an expansion?


class RewritePlanner:
    """A prepared multi-view search over a fixed set of views.

    Builds the signature index once; :meth:`all_rewritings` then runs the
    breadth-first substitution search with view pruning and incremental
    maximality bookkeeping. The result list is identical (same rewritings,
    same order) to the naive search's.
    """

    def __init__(
        self,
        views: Iterable[ViewDef],
        catalog: Optional[Catalog] = None,
        use_set_semantics: bool = False,
    ):
        self.views: list[ViewDef] = list(views)
        self.catalog = catalog
        self.use_set_semantics = use_set_semantics
        self.signatures: list[ViewSignature] = [
            ViewSignature.of(v) for v in self.views
        ]
        # The memo families, by name. "substitution" is the planner's
        # own: single_view_rewritings is a pure function of (block,
        # view, catalog, semantics); the planner fixes the last three,
        # and blocks are deeply frozen, so results are shared across BFS
        # nodes and repeated rewrite traffic. Strategies add theirs
        # through memo().
        self.memos: dict[str, Memo] = {
            "substitution": Memo(self.SUBSTITUTION_CACHE_MAX)
        }
        self.stats = PlannerStats(self.memos["substitution"])

    SUBSTITUTION_CACHE_MAX = 8192
    STRATEGY_MEMO_MAX = 2048

    def _single_view(
        self,
        block: QueryBlock,
        view_index: int,
        meter: Optional[BudgetMeter] = None,
    ) -> list[Rewriting]:
        from .multiview import single_view_rewritings

        memo = self.memos["substitution"]
        key = (block, view_index)
        options = memo.get(key)
        if options is MISSING:
            options = single_view_rewritings(
                block,
                self.views[view_index],
                self.catalog,
                self.use_set_semantics,
                meter=meter,
            )
            # A tripped budget may have truncated the enumeration;
            # caching it would poison later unbudgeted searches with a
            # partial list.
            if meter is None or not meter.exhausted:
                memo.put(key, options)
        return options

    # ------------------------------------------------------------------
    # Memo families, and their export/import: worker warm-start for the
    # serving memo tier.
    # ------------------------------------------------------------------

    def memo(self, family: str) -> Memo:
        """The named memo family (created on first use).

        Strategies own their key/value types (repro.strategies.cohen_nutt
        keeps its per-query answers under ``"cohen_nutt"``); entries must
        be picklable and are only meaningful for an equal (views,
        catalog, semantics) fingerprint, exactly like the substitution
        family.
        """
        memo = self.memos.get(family)
        if memo is None:
            memo = self.memos[family] = Memo(self.STRATEGY_MEMO_MAX)
        return memo

    def lookup(self, family: str, key):
        """``memo(family).get(key)``, counted in
        ``repro_planner_memo_total`` as it happens.

        For lookups made outside :meth:`all_rewritings` (a strategy
        consulting its family around the search); lookups inside it are
        recorded as per-search deltas so the BFS loops never touch the
        registry.
        """
        memo = self.memo(family)
        misses = memo.misses
        value = memo.get(key)
        hit = value is not MISSING
        # A bypassed lookup is neither a hit nor a miss.
        MEMO_LOOKUPS.labels(family, "hit").inc(1 if hit else 0)
        MEMO_LOOKUPS.labels(family, "miss").inc(
            1 if not hit and memo.misses != misses else 0
        )
        return value

    @property
    def memo_version(self) -> int:
        """Monotone count of inserts into any memo family.

        Unchanged between two reads means :meth:`export_memos` would
        return the same entries (up to LRU order), which is how the
        serving layer skips re-exporting a planner that learned nothing.
        """
        # A snapshot of the families: the serving loop reads this while a
        # search on the worker thread may add one.
        return sum(memo.inserts for memo in tuple(self.memos.values()))

    def export_memos(self, max_entries: Optional[int] = None) -> list:
        """Every memo family as one flat picklable list of ``(family,
        key, value)`` entries.

        The entries are only meaningful for a planner prepared with an
        equal (views, catalog, use_set_semantics) triple — the serving
        memo tier keys its entries by exactly that fingerprint. Each
        family is LRU-newest last and, with ``max_entries``, individually
        capped at its most recently used entries.
        """
        out: list = []
        for family, memo in self.memos.items():
            items = memo.items()
            if max_entries is not None:
                items = items[-max_entries:]
            out.extend((family, key, value) for key, value in items)
        return out

    def import_memos(self, entries: Iterable) -> int:
        """Warm-start from :meth:`export_memos` output.

        Existing entries win (they are at least as fresh); the caps still
        apply. Returns the number of entries adopted across all families.
        Importing a snapshot exported under a *different* (views, catalog,
        semantics) triple is undefined — callers must match fingerprints.
        """
        adopted = 0
        for family, key, value in entries:
            if family == "substitution" and not 0 <= key[1] < len(self.views):
                continue
            memo = self.memo(family)
            if key not in memo:
                memo.put(key, value)
                adopted += 1
        return adopted

    # ------------------------------------------------------------------

    def candidate_views(self, block: QueryBlock) -> list[ViewDef]:
        """The views worth a substitution attempt at ``block`` (see
        :meth:`_candidate_indices`)."""
        return [self.views[i] for i in self._candidate_indices(block)]

    def _candidate_indices(self, block: QueryBlock) -> list[int]:
        """The views worth a substitution attempt at ``block``: those
        the FROM signature admits whose pair is memoized or passes the
        coverage prefilter. A pair the prefilter rejects is memoized as
        ``[]``, as the full check would; both rejections count in
        ``views_pruned``."""
        counts = _from_counts(block)
        memo = self.memos["substitution"]
        coverage: Optional[QueryCoverage] = None
        out = []
        for index, signature in enumerate(self.signatures):
            self.stats.views_considered += 1
            if signature.admits(counts, self.use_set_semantics):
                view = signature.coverage
                if view is None or (block, index) in memo:
                    out.append(index)
                    continue
                if coverage is None:
                    coverage = QueryCoverage(block)
                if coverage.missed_by(view) is None:
                    out.append(index)
                    continue
                memo.put((block, index), [])
            self.stats.views_pruned += 1
        return out

    def _merge_options(
        self,
        node: "_Node",
        options: list[Rewriting],
        meter: Optional[BudgetMeter],
        seen: BlockSet,
        next_frontier: list["_Node"],
        result_nodes: list["_Node"],
    ) -> bool:
        """Fold one view's substitutions into the BFS; True = budget hit."""
        _merge = _resolve_merge()
        for option in options:
            if meter is not None and not meter.charge_candidate():
                return True
            merged = _merge(node.rewriting, option)
            self.stats.candidates_generated += 1
            if not seen.add(merged.query):
                self.stats.duplicates_skipped += 1
                continue
            child = _Node(merged, merged.query)
            next_frontier.append(child)
            result_nodes.append(child)
        return False

    # ------------------------------------------------------------------

    def all_rewritings(
        self,
        query: QueryBlock,
        max_steps: int = 4,
        include_partial: bool = True,
        budget: Union[SearchBudget, BudgetMeter, None] = None,
    ) -> list[Rewriting]:
        """The planned equivalent of the naive ``all_rewritings`` search.

        ``budget`` bounds the search. When it trips, the BFS stops where
        it stands and the rewritings found so far come back (each one
        complete and sound — only coverage of the search space degrades);
        the caller reads ``meter.exhausted`` / ``meter.tripped`` off the
        meter it passed in. Partial enumerations are never written to the
        substitution memo.
        """
        meter = None if budget is None else ensure_meter(budget)
        # One probe per search: while a tracer or a registry is active,
        # the PlannerStats and memo counters are read before the search
        # and their deltas folded into both after it, so the BFS inner
        # loops never touch either.
        tracer = _ACTIVE.tracer
        before = (
            self._counts()
            if tracer is not None or current_metrics() is not None
            else None
        )
        self.stats.searches += 1
        seen = BlockSet([query])
        frontier: list[_Node] = [_Node(None, query)]
        result_nodes: list[_Node] = []
        budget_hit = False

        for _step in range(max_steps):
            next_frontier: list[_Node] = []
            for node in frontier:
                if meter is not None and not meter.ok():
                    budget_hit = True
                    break
                node.probed = True
                self.stats.nodes_expanded += 1
                with span("signature_probe"):
                    indices = self._candidate_indices(node.block)
                for view_index in indices:
                    options = self._single_view(node.block, view_index, meter)
                    if options:
                        node.expandable = True
                        with span("merge"):
                            budget_hit = self._merge_options(
                                node, options, meter, seen,
                                next_frontier, result_nodes,
                            )
                    if budget_hit:
                        break
                if budget_hit:
                    break
            if budget_hit or not next_frontier:
                break
            frontier = next_frontier

        if include_partial:
            results = [node.rewriting for node in result_nodes]
        else:
            with span("maximality"):
                results = self._maximal_results(result_nodes, meter)
        if before is not None:
            _record_search(before, self, len(results), tracer)
        return results

    def _search_memos(self) -> Iterator[tuple[str, Memo]]:
        """``(family, memo)`` for every memo a search reads: the
        process-wide registry, then this planner's families."""
        return chain(shared_memos().items(), self.memos.items())

    def _counts(self) -> tuple[list[int], dict[str, tuple[int, int]]]:
        """The counters a search's deltas are taken of: the
        :data:`_FOLDED` PlannerStats fields, and ``family -> (hits,
        misses)`` over :meth:`_search_memos`."""
        return (
            [getattr(self.stats, name) for name in _FOLDED],
            {
                family: (memo.hits, memo.misses)
                for family, memo in self._search_memos()
            },
        )

    def _maximal_results(
        self,
        result_nodes: list["_Node"],
        meter: Optional[BudgetMeter],
    ) -> list[Rewriting]:
        maximal: list[Rewriting] = []
        for node in result_nodes:
            if not node.probed:
                if meter is not None and not meter.ok():
                    # Budget spent: skip the probe and keep the node —
                    # sound, possibly non-maximal (anytime contract).
                    maximal.append(node.rewriting)
                    continue
                # The step bound cut this node off before expansion;
                # probe it now, exactly as the naive maximality
                # re-scan would.
                self.stats.maximality_probes += 1
                node.expandable = any(
                    self._single_view(node.block, view_index, meter)
                    for view_index in self._candidate_indices(node.block)
                )
                node.probed = True
            if not node.expandable:
                maximal.append(node.rewriting)
        return maximal


def cache_stats() -> dict:
    """``{name: Memo.stats()}`` over the process-wide memos, for the
    benchmark report."""
    return {name: memo.stats() for name, memo in shared_memos().items()}


#: The PlannerStats fields folded per search, in trace counter order.
_FOLDED = (
    "searches",
    "nodes_expanded",
    "views_considered",
    "views_pruned",
    "candidates_generated",
    "duplicates_skipped",
    "maximality_probes",
)


def _record_search(
    before: tuple,
    planner: RewritePlanner,
    results_found: int,
    tracer,
) -> None:
    """Fold one search's PlannerStats / memo deltas into the active
    tracer's counters and the active registry.

    Runs once per search (never inside the BFS), so the enabled-mode
    cost is a fixed set of updates per planner call. The trace gets each
    PlannerStats field under its own name, plus the substitution memo's
    ``substitution_hits`` / ``_misses``; zero deltas are left out. Deltas
    are clamped at zero: the process-wide memos may be cleared (or raced
    by sibling threads) mid-search.
    """
    stats_then, memos_then = before

    def delta(now: int, then: int) -> int:
        return now - then if now > then else 0

    deltas = {
        name: delta(getattr(planner.stats, name), then)
        for name, then in zip(_FOLDED, stats_then)
    }
    memo_deltas = {}
    for family, memo in planner._search_memos():
        hits_then, misses_then = memos_then.get(family, (0, 0))
        memo_deltas[family] = (
            delta(memo.hits, hits_then),
            delta(memo.misses, misses_then),
        )
    if tracer is not None:
        hits, misses = memo_deltas["substitution"]
        for name, n in (
            *deltas.items(),
            ("substitution_hits", hits),
            ("substitution_misses", misses),
        ):
            if n:
                tracer.add(name, n)

    SEARCHES.inc(deltas["searches"])
    NODES_EXPANDED.inc(deltas["nodes_expanded"])
    pruned = deltas["views_pruned"]
    VIEWS.labels("admitted").inc(
        max(0, deltas["views_considered"] - pruned)
    )
    VIEWS.labels("pruned").inc(pruned)
    duplicates = deltas["duplicates_skipped"]
    CANDIDATES.labels("kept").inc(
        max(0, deltas["candidates_generated"] - duplicates)
    )
    CANDIDATES.labels("duplicate").inc(duplicates)
    MAXIMALITY_PROBES.inc(deltas["maximality_probes"])
    RESULTS.inc(results_found)
    for family, (hits, misses) in memo_deltas.items():
        MEMO_LOOKUPS.labels(family, "hit").inc(hits)
        MEMO_LOOKUPS.labels(family, "miss").inc(misses)

