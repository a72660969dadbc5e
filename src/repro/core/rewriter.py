"""The user-facing facade: register views, rewrite queries, pick winners.

Typical use::

    from repro import Catalog, RewriteEngine, table

    catalog = Catalog([table("Calls", [...], key=["Call_Id"])])
    engine = RewriteEngine(catalog)
    engine.add_view("CREATE VIEW V1 (...) AS SELECT ...")
    result = engine.rewrite("SELECT ... FROM Calls ... GROUP BY ...")
    print(result.best().sql())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..blocks.normalize import as_block, parse_view
from ..blocks.query_block import QueryBlock, ViewDef
from ..catalog.schema import Catalog
from ..errors import ReproError
from ..obs.budget import BudgetMeter, SearchBudget, ensure_meter
from ..obs.trace import RewriteTrace, Tracer, span, tracing
from .cost import estimate_cost
from .multiview import all_rewritings, single_view_rewritings
from .planner import RewritePlanner
from .result import Rewriting


@dataclass(frozen=True)
class RankedRewriting:
    """A rewriting with its estimated cost (lower is better)."""

    rewriting: Rewriting
    cost: float

    def sql(self) -> str:
        return self.rewriting.sql()


class RewriteResult:
    """All rewritings found for one query, ranked by estimated cost.

    ``exhausted`` is True when a :class:`repro.obs.SearchBudget` tripped
    during the search: ``ranked`` then holds a partial (but individually
    sound) result set and ``budget`` records which limits tripped and the
    work consumed. ``trace`` carries the stage-span tree when the rewrite
    was called with ``trace=True``. A catalog-less :func:`search` cannot
    rank: ``ranked`` is then empty and ``original_cost`` is ``None``.
    """

    def __init__(
        self,
        query: QueryBlock,
        ranked: list[RankedRewriting],
        original_cost: Optional[float],
        exhausted: bool = False,
        budget: Optional[dict] = None,
        trace: Optional[RewriteTrace] = None,
        found: tuple[Rewriting, ...] = (),
    ):
        self.query = query
        self.ranked = ranked
        self.original_cost = original_cost
        self.exhausted = exhausted
        self.budget = budget
        self.trace = trace
        # The candidates in search-discovery order, before ranking; the
        # batch service returns these as ``RewriteResponse.rewritings``.
        self.found = found

    def __iter__(self):
        return iter(self.ranked)

    def __len__(self) -> int:
        return len(self.ranked)

    @property
    def rewritings(self) -> list[Rewriting]:
        return [r.rewriting for r in self.ranked]

    def best(self) -> Optional[Rewriting]:
        """The cheapest rewriting, or None when no view is usable."""
        return self.ranked[0].rewriting if self.ranked else None

    def best_or_original(self) -> QueryBlock:
        """The cheapest plan overall: a rewriting or the original query."""
        best = self.ranked[0] if self.ranked else None
        if best is not None and best.cost < self.original_cost:
            return best.rewriting.query
        return self.query


def merge_strategy_extras(
    candidates: Sequence[Rewriting], extras: Sequence[Rewriting]
) -> list[Rewriting]:
    """The strategy union: C1–C4 candidates plus the extras another
    strategy found, deduplicated by canonical key (C1–C4's member wins a
    tie, so rankings and provenance of the base set never shift)."""
    from .canonical import BlockSet

    seen = BlockSet(rw.query for rw in candidates)
    return list(candidates) + [rw for rw in extras if seen.add(rw.query)]


def strategy_rewritings(
    strategy: str,
    query: QueryBlock,
    views: Sequence[ViewDef],
    *,
    planner: Optional[RewritePlanner] = None,
    budget: Union[SearchBudget, BudgetMeter, None] = None,
    **search,
) -> list[Rewriting]:
    """Every candidate ``strategy`` finds for ``query``, in discovery
    order — the one place a strategy name is interpreted.

    The C1–C4 search always runs (``search`` goes to
    :func:`all_rewritings`); ``"cohen_nutt"`` / ``"both"`` add the
    Cohen–Nutt extras through :func:`merge_strategy_extras`, memoized
    on the same ``planner`` and charged to the same ``budget``.
    """
    candidates = all_rewritings(
        query, views, planner=planner, budget=budget, **search
    )
    if strategy == "c1c4":
        return candidates
    from ..strategies import cohen_nutt_rewritings, normalize_strategy

    normalize_strategy(strategy)
    return merge_strategy_extras(
        candidates,
        cohen_nutt_rewritings(query, views, planner=planner, budget=budget),
    )


def rank(
    candidates: Sequence[Rewriting], catalog: Catalog
) -> list[RankedRewriting]:
    """``candidates`` in estimated-cost order, ties broken by mapping.

    The costs read only the catalog's cardinalities, never the search, so
    ranking a finished candidate set again under new statistics gives
    what a fresh :func:`search` would.
    """
    return sorted(
        (
            RankedRewriting(
                rw, estimate_cost(rw.query, catalog, rw.aux_views)
            )
            for rw in candidates
        ),
        key=lambda r: (r.cost, r.rewriting.mapping_desc),
    )


def search(
    query: Union[str, QueryBlock],
    views: Sequence[ViewDef],
    catalog: Optional[Catalog] = None,
    *,
    planner: Optional[RewritePlanner] = None,
    use_set_semantics: bool = True,
    strategy: str = "c1c4",
    max_steps: int = 3,
    unfold: bool = False,
    include_partial: bool = True,
    budget: Union[SearchBudget, BudgetMeter, None] = None,
    trace: bool = False,
) -> RewriteResult:
    """The one body behind every rewrite: parse, normalise/unfold,
    search, rank, trace.

    :meth:`RewriteEngine.rewrite` and
    :func:`repro.service.executor.execute_request` are thin callers, so
    which front end asked cannot change the answer. The only thing a
    caller chooses is ``planner`` — how warm the search starts; it must
    have been built for these ``views`` / ``catalog`` /
    ``use_set_semantics``, and ``None`` means "build a cold one".

    Without a ``catalog`` there is nothing to parse against or rank
    with: ``query`` must be a pre-parsed block, ``unfold`` does not
    apply, ``ranked`` stays empty and ``original_cost`` is ``None``;
    ``found`` holds the candidates in discovery order either way.
    """
    if catalog is None and not isinstance(query, QueryBlock):
        raise ReproError(
            "a textual query needs a catalog to parse against; pass "
            "catalog= or a pre-parsed QueryBlock"
        )
    meter = ensure_meter(budget)
    tracer = Tracer() if trace else None
    if planner is None:
        planner = RewritePlanner(views, catalog, use_set_semantics)

    with tracing(tracer):
        with span("parse"):
            block = as_block(query, catalog)
        with span("normalize"):
            if isinstance(query, QueryBlock):
                # Text and statements were validated by normalize_select.
                block.validate()
            if unfold and catalog is not None:
                from ..blocks.unfold import unfold_views

                block = unfold_views(block, catalog)
        with span("search"):
            candidates = strategy_rewritings(
                strategy,
                block,
                views,
                max_steps=max_steps,
                include_partial=include_partial,
                planner=planner,
                budget=meter,
            )
        with span("rank"):
            ranked = rank(candidates, catalog) if catalog is not None else []
    budget_doc = meter.as_dict() if meter is not None else None
    return RewriteResult(
        block,
        ranked,
        estimate_cost(block, catalog) if catalog is not None else None,
        exhausted=meter.exhausted if meter is not None else False,
        budget=budget_doc,
        found=tuple(candidates),
        trace=None if tracer is None else RewriteTrace(
            tracer.finish(), counters=tracer.counters, budget=budget_doc
        ),
    )


def _rename_relation(block: QueryBlock, old: str, new: str) -> QueryBlock:
    """A copy of ``block`` with FROM occurrences of ``old`` renamed."""
    from ..blocks.query_block import Relation

    return block.with_(
        from_=tuple(
            Relation(new, rel.columns, rel.base_names)
            if rel.name == old
            else rel
            for rel in block.from_
        )
    )


@dataclass
class NestedRewriteResult:
    """Outcome of rewriting a nested query (Section 7 fragment).

    ``locals`` holds the final derived-table definitions — inner
    rewritings already applied; ``outer`` ranks rewritings of the
    flattened outer block.
    """

    original: "NestedQuery"
    flattened: "NestedQuery"
    locals: dict[str, ViewDef]
    inner_rewrites: dict[str, Rewriting]
    outer: "RewriteResult"

    @property
    def used_views(self) -> list[str]:
        """Catalog views consumed, inner rewrites and outer combined."""
        names: list[str] = []
        for rewriting in self.inner_rewrites.values():
            names.extend(rewriting.view_names)
        best = self.outer.ranked[0] if self.outer.ranked else None
        if best is not None and best.cost < self.outer.original_cost:
            names.extend(best.rewriting.view_names)
        return list(dict.fromkeys(names))

    def best_plan(self) -> tuple[QueryBlock, dict[str, ViewDef]]:
        """The cheapest executable plan: (block, extra view definitions)."""
        extra = dict(self.locals)
        best = self.outer.ranked[0] if self.outer.ranked else None
        if best is not None and best.cost < self.outer.original_cost:
            extra.update(best.rewriting.extra_views())
            return best.rewriting.query, extra
        return self.flattened.block, extra

    def execute(self, database) -> "Table":
        block, extra = self.best_plan()
        return database.execute(block, extra_views=extra)


class RewriteEngine:
    """Rewrites SQL queries to use the catalog's materialized views.

    One :class:`repro.core.planner.RewritePlanner` — and its
    view-signature index and memos — is shared across :meth:`rewrite`
    calls until the view set changes.
    """

    def __init__(
        self,
        catalog: Catalog,
        use_set_semantics: bool = True,
        budget: Optional[SearchBudget] = None,
    ):
        self.catalog = catalog
        self.use_set_semantics = use_set_semantics
        # Per-query default budget; rewrite(budget=...) overrides per call.
        self.budget = budget
        self._planner: Optional[RewritePlanner] = None

    # ------------------------------------------------------------------

    def add_view(
        self,
        definition: Union[str, ViewDef],
        name: Optional[str] = None,
        row_count: Optional[int] = None,
    ) -> ViewDef:
        """Register a materialized view (SQL text or a prepared ViewDef)."""
        if isinstance(definition, str):
            view = parse_view(definition, self.catalog, name=name)
        else:
            view = definition
        self.catalog.add_view(view, row_count=row_count)
        self._planner = None
        return view

    def _shared_planner(self) -> RewritePlanner:
        if self._planner is None or self._planner.views != self.views:
            self._planner = RewritePlanner(
                self.views, self.catalog, self.use_set_semantics
            )
        return self._planner

    @property
    def views(self) -> list[ViewDef]:
        return list(self.catalog.views.values())

    # ------------------------------------------------------------------

    def rewrite(
        self,
        query: Union[str, QueryBlock],
        views: Optional[Sequence[ViewDef]] = None,
        max_steps: int = 3,
        unfold: bool = False,
        catalog: Optional[Catalog] = None,
        budget: Union[SearchBudget, BudgetMeter, None] = None,
        trace: bool = False,
        include_partial: bool = True,
        strategy: str = "c1c4",
    ) -> RewriteResult:
        """Find all rewritings of ``query`` using the registered views.

        Returns a :class:`RewriteResult` ranked by estimated cost. Multi-
        view rewritings are explored up to ``max_steps`` substitutions.
        With ``unfold=True``, conjunctive views in the query's own FROM
        clause are first expanded into base tables (paper Section 7), so
        the rewriter can reassemble the query from *different* views.

        ``budget`` (default: the engine's) bounds the search; a tripped
        budget yields a partial-but-sound result with ``exhausted=True``
        rather than an exception. ``trace=True`` attaches a
        :class:`repro.obs.RewriteTrace` of per-stage timings and search
        counters to the result.

        ``strategy`` selects the search regime (see
        :mod:`repro.strategies`): ``"c1c4"`` is the paper's search;
        ``"cohen_nutt"`` / ``"both"`` add the Cohen–Nutt complete-
        rewriting extras to the candidate set, deduplicated by
        canonical key.
        """
        catalog = catalog if catalog is not None else self.catalog
        return search(
            query,
            views if views is not None else self.views,
            catalog,
            # Warm only when the search is over exactly what the shared
            # planner was built for: this engine's views and catalog.
            planner=(
                self._shared_planner()
                if views is None and catalog is self.catalog
                else None
            ),
            use_set_semantics=self.use_set_semantics,
            strategy=strategy,
            max_steps=max_steps,
            unfold=unfold,
            include_partial=include_partial,
            budget=budget if budget is not None else self.budget,
            trace=trace,
        )

    def rewrite_with(
        self, query: Union[str, QueryBlock], view: ViewDef
    ) -> list[Rewriting]:
        """All single-use rewritings of ``query`` with one view."""
        block = as_block(query, self.catalog)
        return single_view_rewritings(
            block, view, self.catalog, self.use_set_semantics
        )

    def rewrite_nested(
        self,
        query,
        max_steps: int = 3,
        budget: Union[SearchBudget, BudgetMeter, None] = None,
    ) -> "NestedRewriteResult":
        """Rewrite a query with FROM-clause subqueries (Section 7).

        Conjunctive derived tables are first flattened into the outer
        block; each surviving (aggregation) derived table's body is
        rewritten independently when a registered view makes it cheaper;
        finally the outer block itself is rewritten as usual.

        One ``budget`` meter covers the whole request — every inner
        rewrite plus the outer one — so a nested query cannot multiply
        the deadline by its number of derived tables.
        """
        from ..blocks.nested import NestedQuery, parse_nested_query

        meter = ensure_meter(budget if budget is not None else self.budget)
        if isinstance(query, str):
            nested = parse_nested_query(query, self.catalog)
        else:
            nested = query
        flat = nested.flatten(self.catalog)
        working = flat.with_locals_registered(self.catalog)

        final_locals: dict[str, ViewDef] = {}
        inner_rewrites: dict[str, Rewriting] = {}
        for view in flat.local_views:
            if meter is not None and not meter.ok():
                # Budget spent: serve the derived table directly.
                final_locals[view.name] = view
                continue
            direct_cost = estimate_cost(view.block, working)
            best: Optional[Rewriting] = None
            best_cost = direct_cost
            for candidate in all_rewritings(
                view.block,
                self.views,
                catalog=working,
                use_set_semantics=self.use_set_semantics,
                max_steps=max_steps,
                budget=meter,
            ):
                cost = estimate_cost(
                    candidate.query, working, candidate.aux_views
                )
                if cost < best_cost:
                    best, best_cost = candidate, cost
            if best is None:
                final_locals[view.name] = view
                continue
            inner_rewrites[view.name] = best
            # Namespace the rewriting's auxiliary views per local so two
            # inner rewrites over the same catalog view cannot collide.
            body = best.query
            for aux in best.aux_views:
                fresh = f"{aux.name}__{view.name}"
                body = _rename_relation(body, aux.name, fresh)
                final_locals[fresh] = ViewDef(
                    fresh, aux.block, aux.output_names
                )
            final_locals[view.name] = ViewDef(
                view.name, body, view.output_names
            )

        outer = self.rewrite(
            flat.block, max_steps=max_steps, catalog=working, budget=meter
        )
        return NestedRewriteResult(
            original=nested,
            flattened=flat,
            locals=final_locals,
            inner_rewrites=inner_rewrites,
            outer=outer,
        )

    def answer(self, query: Union[str, QueryBlock], database) -> "Table":
        """Evaluate ``query`` on ``database`` through the cheapest plan.

        Picks between direct evaluation and the best rewriting by
        estimated cost; either way the same multiset of answers comes
        back (Theorems 3.1/4.1).
        """
        result = self.rewrite(query)
        best = result.ranked[0] if result.ranked else None
        if best is not None and best.cost < result.original_cost:
            return database.execute(
                best.rewriting.query,
                extra_views=best.rewriting.extra_views(),
            )
        return database.execute(result.query)
