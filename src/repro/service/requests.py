"""Frozen request/response dataclasses of the batch rewriting service.

These are the wire types of the :mod:`repro.api` facade: everything here
is picklable (they cross the :class:`~concurrent.futures.ProcessPoolExecutor`
boundary) and JSON-projectable under the versioned ``repro-api/1``
schema (see ``docs/api.md``).

The contract the service maintains: a batch of N requests always yields
exactly N responses, in request order. A request that could not run —
parse error, batch deadline overflow — comes back as a *degraded*
response (``error`` set, or ``exhausted=True`` with ``"batch_deadline"``
among the tripped limits), never as a dropped entry or an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.to_sql import block_to_sql
from ..catalog.schema import Catalog
from ..core.result import Rewriting
from ..core.rewriter import RankedRewriting
from ..obs.budget import SearchBudget
from ..obs.trace import RewriteTrace

#: Version tag stamped on every JSON projection of a response, so
#: downstream tooling can detect format drift. Bump on breaking change.
API_SCHEMA = "repro-api/1"


@dataclass(frozen=True)
class RewriteRequest:
    """One rewrite job: a query, the views to use, and search limits.

    ``views=None`` means "the catalog's registered views". ``catalog``
    may be omitted only when ``query`` is an already-parsed
    :class:`QueryBlock`; responses then skip cost ranking (there are no
    cardinalities to rank with) and report candidates in discovery
    order.
    """

    query: Union[str, QueryBlock]
    catalog: Optional[Catalog] = None
    views: Optional[tuple[ViewDef, ...]] = None
    budget: Optional[SearchBudget] = None
    max_steps: int = 3
    unfold: bool = False
    use_set_semantics: bool = True
    include_partial: bool = True
    trace: bool = False
    collect_metrics: bool = False
    request_id: Optional[str] = None
    #: Planner strategy (see :mod:`repro.strategies`): ``"c1c4"`` (the
    #: paper's search, the default) or ``"cohen_nutt"``.
    strategy: str = "c1c4"

    def effective_views(self) -> tuple[ViewDef, ...]:
        """The view set this request searches over."""
        if self.views is not None:
            return tuple(self.views)
        if self.catalog is None:
            return ()
        return tuple(self.catalog.views.values())

    def has_count_budget(self) -> bool:
        """True when the budget carries deterministic (count) limits.

        Count-limited searches must run against a cold planner memo, or
        the trip point — and therefore the result set — would depend on
        which requests happened to share the planner first.
        """
        return self.budget is not None and (
            self.budget.max_mappings is not None
            or self.budget.max_candidates is not None
        )


@dataclass(frozen=True)
class RewriteResponse:
    """The outcome of one request: rewritings plus full observability.

    ``rewritings`` is the search's discovery order (what the legacy
    ``all_rewritings`` returned); ``ranked`` is the same set in
    estimated-cost order when the request carried a catalog. ``degraded``
    marks responses the batch deadline refused to run at all.
    """

    query: Optional[QueryBlock] = None
    rewritings: tuple[Rewriting, ...] = ()
    ranked: tuple[RankedRewriting, ...] = ()
    original_cost: Optional[float] = None
    exhausted: bool = False
    budget: Optional[dict] = None
    trace: Optional[RewriteTrace] = None
    metrics: Optional[dict] = None
    request_id: Optional[str] = None
    elapsed: float = 0.0
    error: Optional[str] = None
    degraded: bool = False

    def best(self) -> Optional[Rewriting]:
        """The cheapest rewriting (first found when unranked), or None."""
        if self.ranked:
            return self.ranked[0].rewriting
        if self.rewritings:
            return self.rewritings[0]
        return None

    def best_sql(self) -> Optional[str]:
        best = self.best()
        return best.sql() if best is not None else None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __getstate__(self) -> dict:
        # serving.protocol.line_template's cache stays in its process.
        state = dict(self.__dict__)
        state.pop("_cached_line", None)
        return state

    def to_json_dict(self) -> dict:
        """The ``repro-api/1`` projection (shared by every CLI command)."""
        ranked = self.ranked or tuple(
            RankedRewriting(rw, float("nan")) for rw in self.rewritings
        )
        return {
            "schema": API_SCHEMA,
            "kind": "rewrite",
            "request_id": self.request_id,
            "query": (
                block_to_sql(self.query) if self.query is not None else None
            ),
            "original_cost": self.original_cost,
            "rewritings": [
                {
                    "sql": r.rewriting.sql(),
                    "cost": None if r.cost != r.cost else r.cost,
                    "views": list(r.rewriting.view_names),
                    "strategy": r.rewriting.strategy,
                }
                for r in ranked
            ],
            "exhausted": self.exhausted,
            "degraded": self.degraded,
            "budget": self.budget,
            "trace": self.trace.as_dict() if self.trace else None,
            "metrics": self.metrics,
            "elapsed": round(self.elapsed, 6),
            "error": self.error,
        }


@dataclass(frozen=True)
class BatchResult:
    """All responses of one batch, in request order, plus the batch view.

    ``report`` aggregates throughput and degradation counters; ``trace``
    is the stitched per-request span tree when any request asked for
    tracing.
    """

    responses: tuple[RewriteResponse, ...]
    report: dict = field(default_factory=dict)
    trace: Optional[RewriteTrace] = None
    metrics: Optional[dict] = None

    def __iter__(self):
        return iter(self.responses)

    def __len__(self) -> int:
        return len(self.responses)

    def __getitem__(self, index: int) -> RewriteResponse:
        return self.responses[index]

    @property
    def exhausted_count(self) -> int:
        return sum(1 for r in self.responses if r.exhausted)

    @property
    def degraded_count(self) -> int:
        return sum(1 for r in self.responses if r.degraded)

    @property
    def error_count(self) -> int:
        return sum(1 for r in self.responses if r.error is not None)

    def to_json_dict(self) -> dict:
        return {
            "schema": API_SCHEMA,
            "kind": "batch",
            "batch": dict(self.report),
            "trace": self.trace.as_dict() if self.trace else None,
            "metrics": self.metrics,
            "responses": [r.to_json_dict() for r in self.responses],
        }
