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
and :func:`baseline_mode` additionally switches the memoization caches
off, so A/B benchmarks can reproduce the pre-planner behavior exactly.
Result-set parity between the two paths is asserted by
``tests/core/test_planner_parity.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from ..blocks.query_block import QueryBlock, ViewDef
from ..catalog.schema import Catalog
from ..memo import MISSING, Memo, disabled, shared_memos
from ..obs.budget import BudgetMeter, SearchBudget, ensure_meter
from ..obs.metrics import _ACTIVE, counter, current_metrics
from ..obs.trace import span
from .canonical import BlockSet
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


@dataclass(frozen=True)
class ViewSignature:
    """What a view needs from a query's FROM clause to be applicable.

    ``relations`` lists ``((name, arity), count)`` sorted by name; the
    class flag mirrors which rewriting path (Section 3 vs Section 4)
    the view takes, for diagnostics and the benchmark report.
    """

    relations: tuple[tuple[tuple[str, int], int], ...]
    is_conjunctive: bool

    @classmethod
    def of(cls, view: ViewDef) -> "ViewSignature":
        counts = _from_counts(view.block)
        return cls(
            relations=tuple(sorted(counts.items())),
            is_conjunctive=view.block.is_conjunctive,
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

    @property
    def prune_rate(self) -> float:
        if not self.views_considered:
            return 0.0
        return self.views_pruned / self.views_considered

    def as_dict(self) -> dict:
        return {
            "searches": self.searches,
            "nodes_expanded": self.nodes_expanded,
            "views_considered": self.views_considered,
            "views_pruned": self.views_pruned,
            "prune_rate": round(self.prune_rate, 4),
            "candidates_generated": self.candidates_generated,
            "duplicates_skipped": self.duplicates_skipped,
            "maximality_probes": self.maximality_probes,
            "substitution_hits": self.substitution_hits,
            "substitution_misses": self.substitution_misses,
        }


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
    # batch service and the serving memo tier.
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
        equal (views, catalog, use_set_semantics) triple — the batch
        service keys its memo store by exactly that fingerprint. Each
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
        """The views whose signature is contained in ``block``'s FROM."""
        return [self.views[i] for i in self._candidate_indices(block)]

    def _candidate_indices(self, block: QueryBlock) -> list[int]:
        counts = _from_counts(block)
        out = []
        for index, signature in enumerate(self.signatures):
            self.stats.views_considered += 1
            if signature.admits(counts, self.use_set_semantics):
                out.append(index)
            else:
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


def baseline_mode():
    """Disable every search-core memo — the seed behavior, for A/B runs.

    Combine with ``all_rewritings(..., use_planner=False)`` to time the
    exact pre-planner code path.
    """
    return disabled()
