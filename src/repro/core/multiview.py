"""Multiple uses of views: the iterative procedure of Section 3.2.

Rewritings with several views (or several uses of one view) are obtained
by successive single-view rewriting steps; views incorporated earlier are
treated as database tables in later steps (their FROM names simply do not
match any candidate view's base tables, so this falls out of mapping
enumeration). Theorem 3.2: the procedure is sound, Church-Rosser (order
does not matter), and — for equality-only predicates and conjunctive
views — complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from .planner import RewritePlanner

from ..blocks.query_block import QueryBlock, ViewDef
from ..catalog.schema import Catalog
from ..mappings.enumerate_mappings import enumerate_mappings
from ..obs.budget import BudgetMeter, SearchBudget, ensure_meter
from ..obs.metrics import counter
from ..obs.trace import span
from .aggregate import try_rewrite_aggregation
from .canonical import BlockSet, canonical_key
from .conjunctive import try_rewrite_conjunctive
from .result import Rewriting
from .setsem import try_rewrite_set_semantics

BudgetLike = Optional[Union[SearchBudget, BudgetMeter]]

MAPPINGS = counter(
    "repro_planner_mappings_total",
    "Column mappings enumerated, by kind.",
    ("kind",),
)


def single_view_rewritings(
    query: QueryBlock,
    view: ViewDef,
    catalog: Optional[Catalog] = None,
    use_set_semantics: bool = False,
    meter: Optional[BudgetMeter] = None,
) -> list[Rewriting]:
    """Every rewriting of ``query`` using ``view`` once (all mappings).

    Tries the Section 3 path for conjunctive views, the Section 4 path for
    aggregation views, and — when ``use_set_semantics`` and a catalog with
    key information are supplied — the Section 5.2 many-to-1 path.

    ``meter`` bounds mapping enumeration and is polled between the C1–C4
    checks, so a spent budget returns the (sound) rewritings found so
    far; completeness of the list is what degrades.
    """
    out: list[Rewriting] = []
    seen = BlockSet()

    def add(rewriting: Optional[Rewriting]) -> None:
        if rewriting is not None and seen.add(rewriting.query):
            out.append(rewriting)

    with span("mapping_enumeration"):
        mappings = list(enumerate_mappings(view.block, query, meter=meter))
    if mappings:
        # Both kinds' series exist once either kind is counted.
        MAPPINGS.labels("one_to_one").inc(len(mappings))
        MAPPINGS.labels("many_to_one").inc(0)
    with span("checks"):
        for mapping in mappings:
            if meter is not None and not meter.ok():
                return out
            if view.block.is_conjunctive:
                add(try_rewrite_conjunctive(query, view, mapping))
            else:
                add(try_rewrite_aggregation(query, view, mapping))
    if use_set_semantics and catalog is not None:
        if meter is not None and not meter.ok():
            return out
        with span("mapping_enumeration"):
            many = [
                m
                for m in enumerate_mappings(
                    view.block, query, many_to_one=True, meter=meter
                )
                if not m.is_one_to_one
            ]
        if many:
            MAPPINGS.labels("one_to_one").inc(0)
            MAPPINGS.labels("many_to_one").inc(len(many))
        with span("checks"):
            for mapping in many:
                if meter is not None and not meter.ok():
                    return out
                add(try_rewrite_set_semantics(query, view, mapping, catalog))
    return out


def _merge(base: Optional[Rewriting], step: Rewriting) -> Rewriting:
    """Compose provenance of successive rewriting steps."""
    if base is None:
        return step
    return Rewriting(
        query=step.query,
        view_names=base.view_names + step.view_names,
        strategy=f"{base.strategy}+{step.strategy}",
        mapping_desc=f"{base.mapping_desc}; {step.mapping_desc}",
        aux_views=base.aux_views + step.aux_views,
        notes=base.notes + step.notes,
    )


def rewrite_iteratively(
    query: QueryBlock,
    views: Sequence[ViewDef],
    catalog: Optional[Catalog] = None,
    use_set_semantics: bool = False,
    budget: BudgetLike = None,
) -> Optional[Rewriting]:
    """Apply the views in the given order, greedily taking the first
    usable mapping of each; views that are not usable are skipped.

    Used by the Church-Rosser experiments: for conjunctive views with
    equality predicates, any order yields the same result (Theorem 3.2).

    The ``budget`` is honored *between* per-view iterations as well as
    inside each ``single_view_rewritings`` call: once spent, remaining
    views are not attempted at all, so one expensive view cannot consume
    the whole deadline and then let the stragglers spin. The partial
    composition built so far is returned (it is a complete, sound
    rewriting of the query).
    """
    meter = ensure_meter(budget)
    current: Optional[Rewriting] = None
    block = query
    for view in views:
        if meter is not None and not meter.ok():
            break
        options = single_view_rewritings(
            block, view, catalog, use_set_semantics, meter=meter
        )
        if not options:
            continue
        current = _merge(current, options[0])
        block = current.query
    return current


@dataclass(frozen=True)
class _SearchNode:
    rewriting: Optional[Rewriting]
    block: QueryBlock


def all_rewritings(
    query: QueryBlock,
    views: Iterable[ViewDef],
    catalog: Optional[Catalog] = None,
    use_set_semantics: bool = False,
    max_steps: int = 4,
    include_partial: bool = True,
    use_planner: bool = True,
    planner: Optional["RewritePlanner"] = None,
    budget: BudgetLike = None,
) -> list[Rewriting]:
    """Every rewriting reachable by iterated single-view substitution.

    Breadth-first over substitution sequences, deduplicated by canonical
    form. ``max_steps`` bounds the number of view incorporations (each
    step removes at least one base table, so the bound is also naturally
    limited by the query's FROM size). With ``include_partial`` every
    intermediate rewriting is returned, not only the maximal ones.

    By default the search runs through the indexed/memoized
    :class:`repro.core.planner.RewritePlanner`, which returns the same
    result list faster; ``use_planner=False`` runs the original
    enumeration (kept callable for A/B benchmarks and parity tests). A
    prepared ``planner`` may be passed to reuse its signature index and
    stats across queries (``views`` is ignored then).

    ``budget`` (a :class:`repro.obs.SearchBudget`, or an already-running
    :class:`repro.obs.BudgetMeter`) bounds the search; when it trips,
    the rewritings found so far are returned and the meter reports
    ``exhausted=True``. Budgets never raise.
    """
    if planner is not None or use_planner:
        from .planner import RewritePlanner

        if planner is None:
            planner = RewritePlanner(views, catalog, use_set_semantics)
        return planner.all_rewritings(
            query, max_steps, include_partial, budget=budget
        )
    return all_rewritings_naive(
        query,
        views,
        catalog,
        use_set_semantics,
        max_steps,
        include_partial,
        budget=budget,
    )


def all_rewritings_naive(
    query: QueryBlock,
    views: Iterable[ViewDef],
    catalog: Optional[Catalog] = None,
    use_set_semantics: bool = False,
    max_steps: int = 4,
    include_partial: bool = True,
    budget: BudgetLike = None,
) -> list[Rewriting]:
    """The original (unindexed, non-incremental) search.

    Every view is tried at every node and maximality is decided by
    re-running ``single_view_rewritings`` over every result. Kept as the
    parity baseline for :mod:`repro.core.planner`. Honors ``budget``
    with the same partial-results contract as the planner.
    """
    meter = ensure_meter(budget)
    view_list = list(views)
    results: list[Rewriting] = []
    seen: set[str] = {canonical_key(query)}
    frontier: list[_SearchNode] = [_SearchNode(None, query)]
    for _step in range(max_steps):
        next_frontier: list[_SearchNode] = []
        for node in frontier:
            if meter is not None and not meter.ok():
                break
            for view in view_list:
                for option in single_view_rewritings(
                    node.block, view, catalog, use_set_semantics, meter=meter
                ):
                    if meter is not None and not meter.charge_candidate():
                        break
                    merged = _merge(node.rewriting, option)
                    key = canonical_key(merged.query)
                    if key in seen:
                        continue
                    seen.add(key)
                    next_frontier.append(_SearchNode(merged, merged.query))
                    results.append(merged)
        if not next_frontier:
            break
        frontier = next_frontier
    if include_partial:
        return results
    if meter is not None and not meter.ok():
        # Budget spent: skip the (expensive) maximality re-scan and
        # return every result — sound, possibly non-maximal.
        return results
    return [
        r
        for r in results
        if not any(
            single_view_rewritings(r.query, v, catalog, use_set_semantics)
            for v in view_list
        )
    ]
