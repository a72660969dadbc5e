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

    def winner(self) -> Optional[Rewriting]:
        """The cheapest rewriting when it beats direct evaluation."""
        best = self.ranked[0] if self.ranked else None
        if best is not None and best.cost < self.original_cost:
            return best.rewriting
        return None

    def best_or_original(self) -> QueryBlock:
        """The cheapest plan overall: a rewriting or the original query."""
        winner = self.winner()
        return self.query if winner is None else winner.query


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
    :func:`all_rewritings`); ``"cohen_nutt"`` adds the
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
        ``"cohen_nutt"`` adds the Cohen–Nutt complete-rewriting extras
        to the candidate set, deduplicated by canonical key.
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

    def answer(self, query: Union[str, QueryBlock], database) -> "Table":
        """Evaluate ``query`` on ``database`` through the cheapest plan.

        Picks between direct evaluation and the best rewriting by
        estimated cost; either way the same multiset of answers comes
        back (Theorems 3.1/4.1).
        """
        result = self.rewrite(query)
        winner = result.winner()
        if winner is None:
            return database.execute(result.query)
        return database.execute(
            winner.query, extra_views=winner.extra_views()
        )
