"""Execute one :class:`RewriteRequest` — the shared single-request path.

Every execution mode funnels through :func:`execute_request`: the
``repro.api`` facade calls it inline, the serial batch mode loops over
it, thread/process workers run it once per request in their chunk and
the serving daemon's :class:`~repro.serving.worker.PlannerCache` calls
it with the fingerprint's planner. It resolves the budget, hands the
request to :func:`repro.core.rewriter.search` — the one body that
parses, searches, ranks and traces, with or without a catalog — and
shapes the result into a response. One code path is what makes the
batch-parity guarantee testable at all.

Which planner
    A caller passes the planner it keeps warm for the request's
    ``(views, catalog keys, semantics)`` fingerprint, or nothing; the
    search then builds a cold one. That is the only thing a front end
    chooses, and it can never change the answer.

Determinism rule
    Requests whose budget carries *count* limits (``max_mappings`` /
    ``max_candidates``) always run against a cold planner, even inside a
    warm group: a memo hit skips mapping enumeration, so a warm memo
    would shift the trip point and the result set would depend on batch
    composition. Unbudgeted and deadline-only requests share the group
    planner freely — memoization is pure, so their result sets are
    independent of warm-up (only their latency improves).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Union

from ..blocks.query_block import QueryBlock
from ..core.planner import RewritePlanner
from ..core.rewriter import search
from ..errors import ReproError
from ..obs.budget import BudgetMeter, SearchBudget, ensure_meter
from ..obs.metrics import (
    MetricsRegistry,
    collecting,
    counter,
    current_metrics,
    histogram,
)
from .requests import RewriteRequest, RewriteResponse

REQUEST_SECONDS = histogram(
    "repro_service_request_seconds",
    "Wall-clock latency of individual rewrite requests.",
)
REQUESTS = counter(
    "repro_service_requests_total",
    "Rewrite requests executed, by outcome.",
    ("outcome",),
)

#: Distinguishes "no overlay budget supplied" from an explicit None.
_UNSET = object()


def execute_request(
    request: RewriteRequest,
    *,
    planner: Optional[RewritePlanner] = None,
    budget: Union[SearchBudget, BudgetMeter, None, object] = _UNSET,
    capture_errors: bool = False,
) -> RewriteResponse:
    """Run one request and shape the outcome into a `RewriteResponse`.

    ``planner`` is the caller's warm planner for this request's
    fingerprint (the chunk's, or the daemon's cached one); omitted, the
    search builds a cold one — both are equivalent apart from warmth.
    ``budget`` overrides the request's own budget (the
    batch deadline overlay); the default sentinel means "use the
    request's". With ``capture_errors`` an exception becomes an error
    response instead of propagating — the batch contract: a
    :class:`ReproError` answers with its message, anything else with
    ``internal: <Type>: <message>``, so one request cannot fail a batch.

    ``request.collect_metrics`` runs the request under its own scoped
    registry: the response carries a ``repro-metrics/1`` snapshot of
    exactly this request's work, and the same snapshot is folded once
    into the enclosing registry (chunk or global) so totals stay
    complete without double counting.
    """
    if not request.collect_metrics:
        return _attempt(request, planner, budget, capture_errors)
    local = MetricsRegistry()
    with collecting(local):
        response = _attempt(request, planner, budget, capture_errors)
    snapshot = local.snapshot()
    parent = current_metrics()
    if parent is not None:
        parent.merge(snapshot)
    return replace(response, metrics=snapshot.as_dict())


def _attempt(
    request: RewriteRequest,
    planner: Optional[RewritePlanner],
    budget,
    capture_errors: bool,
) -> RewriteResponse:
    started = time.perf_counter()
    try:
        response = _run(request, planner, budget, started)
    except Exception as error:  # noqa: BLE001 — see capture_errors
        if not capture_errors:
            raise
        message = (
            str(error)
            if isinstance(error, ReproError)
            else f"internal: {type(error).__name__}: {error}"
        )
        response = RewriteResponse(
            query=(
                request.query
                if isinstance(request.query, QueryBlock)
                else None
            ),
            request_id=request.request_id,
            elapsed=time.perf_counter() - started,
            error=message,
        )
    REQUEST_SECONDS.observe(response.elapsed)
    REQUESTS.labels(
        "error"
        if response.error is not None
        else "exhausted" if response.exhausted else "ok"
    ).inc()
    return response


def _run(
    request: RewriteRequest,
    planner: Optional[RewritePlanner],
    budget,
    started: float,
) -> RewriteResponse:
    meter = ensure_meter(request.budget if budget is _UNSET else budget)
    if request.has_count_budget():
        planner = None  # the determinism rule: plan cold
    result = search(
        request.query,
        request.effective_views(),
        request.catalog,
        planner=planner,
        use_set_semantics=request.use_set_semantics,
        strategy=request.strategy,
        max_steps=request.max_steps,
        unfold=request.unfold,
        include_partial=request.include_partial,
        budget=meter,
        trace=request.trace,
    )
    return RewriteResponse(
        query=result.query,
        rewritings=result.found,
        ranked=tuple(result.ranked),
        original_cost=result.original_cost,
        exhausted=result.exhausted,
        budget=result.budget,
        trace=result.trace,
        request_id=request.request_id,
        elapsed=time.perf_counter() - started,
    )
