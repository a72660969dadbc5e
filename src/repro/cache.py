"""A semantic query-result cache built on the rewriter.

The paper's mobile-computing motivation (Section 1): "Locally cached
materialized views of the data, such as the results of previous queries,
may improve the performance of such applications." [Sel88, SJGP90, CR94]
cached results matched *syntactically*; the point of the paper is that the
usability conditions enable **semantic** matching — a cached result can
answer a query it doesn't textually contain.

:class:`QueryCache` remembers (query, result) pairs as materialized
views, answers later queries by rewriting them over the cached views
(never touching base tables), and evicts least-recently-used entries
under a row-count capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .blocks.normalize import as_block
from .blocks.query_block import QueryBlock, ViewDef
from .catalog.schema import Catalog
from .core.multiview import all_rewritings
from .core.planner import RewritePlanner
from .core.result import Rewriting
from .obs.budget import BudgetMeter, SearchBudget, ensure_meter
from .obs.metrics import counter, gauge
from .engine.database import Database
from .engine.table import Table
from .errors import SchemaError

LOOKUPS = counter(
    "repro_cache_lookups_total",
    "Semantic query-cache lookups, by outcome.",
    ("outcome",),
)
REMEMBERED = counter(
    "repro_cache_remember_total",
    "Query results remembered by the semantic cache.",
)
EVICTIONS = counter(
    "repro_cache_evictions_total",
    "LRU evictions forced by the row-capacity bound.",
)
SIZE_ROWS = gauge(
    "repro_cache_size_rows", "Summed cardinality of all cached results."
)
ENTRIES = gauge("repro_cache_entries", "Cached result tables currently held.")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    remembered: int = 0
    budget_exhausted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """An idempotent read: never mutates or resets the counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "remembered": self.remembered,
            "budget_exhausted": self.budget_exhausted,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset(self) -> None:
        """Zero all counters in place — the only sanctioned reset path.

        Stats reads (:meth:`as_dict`, the attributes) are idempotent;
        callers wanting a fresh window must reset explicitly, so derived
        gauges never go backwards behind a reader's back.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.remembered = 0
        self.budget_exhausted = 0


@dataclass
class _Entry:
    view: ViewDef
    table: Table

    @property
    def rows(self) -> int:
        return len(self.table)


class QueryCache:
    """Answers queries from the results of earlier queries.

    ``capacity_rows`` bounds the summed cardinality of cached results;
    exceeding it evicts least-recently-used entries. The cache owns a
    private catalog copy, so registrations and evictions never touch the
    caller's catalog.
    """

    def __init__(
        self,
        catalog: Catalog,
        capacity_rows: float = float("inf"),
        use_set_semantics: bool = False,
        budget: Optional[SearchBudget] = None,
    ):
        self.base_catalog = catalog
        self.capacity_rows = capacity_rows
        self.use_set_semantics = use_set_semantics
        # Default lookup budget: a spent budget is just a cache miss, so
        # heavy traffic can cap per-lookup rewrite latency without ever
        # getting a wrong (or missing) answer.
        self.budget = budget
        self._catalog = catalog.copy()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._counter = 0
        self._size_rows = 0
        self._planner: Optional[RewritePlanner] = None
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def remember(
        self,
        query: Union[str, QueryBlock],
        result: Union[Table, Iterable],
        name: Optional[str] = None,
    ) -> ViewDef:
        """Cache a query's result; returns the registered view."""
        block = as_block(query, self.base_catalog)
        if name is None:
            self._counter += 1
            name = f"cached_{self._counter}"
        view = ViewDef(name, block)
        if isinstance(result, Table):
            table = Table(view.output_names, result.rows)
        else:
            table = Table(view.output_names, result)
        previous = self._entries.get(name)
        if previous is not None:
            self._catalog.remove_view(name)
            self._size_rows -= previous.rows
        self._catalog.add_view(view, row_count=len(table))
        self._entries[name] = _Entry(view, table)
        self._entries.move_to_end(name)
        self._size_rows += len(table)
        self._planner = None
        self.stats.remembered += 1
        REMEMBERED.inc()
        self._evict_over_capacity(keep=name)
        self._update_gauges()
        return view

    def forget(self, name: str) -> None:
        """Drop one cached result."""
        if name not in self._entries:
            raise SchemaError(f"not cached: {name}")
        self._size_rows -= self._entries[name].rows
        del self._entries[name]
        self._catalog.remove_view(name)
        self._planner = None
        self._update_gauges()

    def _evict_over_capacity(self, keep: str) -> None:
        evicted = 0
        while self._size_rows > self.capacity_rows and len(self._entries) > 1:
            victim = next(
                (n for n in self._entries if n != keep), None
            )
            if victim is None:
                break
            self._size_rows -= self._entries[victim].rows
            del self._entries[victim]
            self._catalog.remove_view(victim)
            self._planner = None
            self.stats.evictions += 1
            evicted += 1
        if evicted:
            EVICTIONS.inc(evicted)

    def _update_gauges(self) -> None:
        """Mirror occupancy into the active registry after any mutation."""
        SIZE_ROWS.set(self._size_rows)
        ENTRIES.set(len(self._entries))

    # ------------------------------------------------------------------

    @property
    def size_rows(self) -> int:
        """Summed cardinality of all cached results.

        Maintained incrementally on remember/forget/evict — the eviction
        loop used to re-sum every entry per iteration (quadratic).
        """
        return self._size_rows

    @property
    def cached_names(self) -> list[str]:
        return list(self._entries)

    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Explicitly zero the lookup/eviction counters.

        Reads never reset — ``stats.as_dict()`` can be polled by a gauge
        exporter without the numbers going backwards between polls.
        """
        self.stats.reset()

    # ------------------------------------------------------------------

    def find_rewriting(
        self,
        query: Union[str, QueryBlock],
        budget: Union[SearchBudget, BudgetMeter, None] = None,
    ) -> Optional[Rewriting]:
        """A rewriting of ``query`` whose FROM reads only cached views.

        ``budget`` (default: the cache's) bounds the search; a spent
        budget simply means fewer candidates were tried — the lookup
        degrades to a miss, never an error.
        """
        meter = ensure_meter(budget if budget is not None else self.budget)
        block = as_block(query, self._catalog)
        if self._planner is None:
            # Reused across lookups until the cached view set changes, so
            # heavy query traffic pays for the signature index once.
            self._planner = RewritePlanner(
                [entry.view for entry in self._entries.values()],
                catalog=self._catalog,
                use_set_semantics=self.use_set_semantics,
            )
        candidates = all_rewritings(
            block,
            (),
            catalog=self._catalog,
            use_set_semantics=self.use_set_semantics,
            planner=self._planner,
            budget=meter,
        )
        if meter is not None and meter.exhausted:
            self.stats.budget_exhausted += 1
        cached = set(self._entries)
        for rewriting in candidates:
            names = {rel.name for rel in rewriting.query.from_}
            if names <= cached:
                return rewriting
        return None

    def try_answer(
        self,
        query: Union[str, QueryBlock],
        budget: Union[SearchBudget, BudgetMeter, None] = None,
    ) -> Optional[Table]:
        """Answer from the cache, or None on a miss.

        A hit never reads base tables; the rewritten query runs against
        the cached result tables only. A tripped search budget degrades
        to a miss, so callers fall back to the original query.
        """
        rewriting = self.find_rewriting(query, budget=budget)
        if rewriting is None:
            self.stats.misses += 1
            LOOKUPS.labels("miss").inc()
            return None
        db = Database(self._catalog)
        for name in rewriting.view_names:
            entry = self._entries[name]
            db._view_cache[name] = entry.table  # noqa: SLF001 - serving
            self._entries.move_to_end(name)     # LRU touch
        self.stats.hits += 1
        LOOKUPS.labels("hit").inc()
        return db.execute(rewriting.query, extra_views=rewriting.extra_views())

    def answer(
        self,
        query: Union[str, QueryBlock],
        database: Database,
        remember_on_miss: bool = True,
        budget: Union[SearchBudget, BudgetMeter, None] = None,
    ) -> tuple[Table, bool]:
        """Answer from the cache, falling back to ``database``.

        Returns ``(result, hit)``. On a miss the fresh result is cached
        (when ``remember_on_miss``).
        """
        cached = self.try_answer(query, budget=budget)
        if cached is not None:
            return cached, True
        result = database.execute(as_block(query, self.base_catalog))
        if remember_on_miss:
            self.remember(query, result)
        return result, False
