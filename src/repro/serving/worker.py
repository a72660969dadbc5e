"""Request execution with memo-tier warm start.

The daemon's one :class:`PlannerCache` implements the reader side of
the memo tier's epoch protocol:

1. compute the request's serving fingerprint;
2. if a locally cached planner exists for that fingerprint *and* the
   tier's epoch is unchanged since it was validated, reuse it;
3. otherwise look the fingerprint up in the tier: present means build
   a planner and warm it with :meth:`import_memos` (the entry cannot be
   stale — invalidation removes entries, it never leaves old bytes
   findable); absent means plan cold;
4. answer a byte-identical repeat from the cache's response memo
   (below); otherwise hand the request and the planner to the shared
   :func:`repro.service.executor.execute_request` — the same call the
   batch service makes;
5. hand the planner's memo export back to the caller, but only when
   the planner's memo version moved since this cache last exported it
   (a new planner always exports once); otherwise the export is empty
   and nothing is published. The cache never writes the tier: the
   daemon publishes the non-empty exports.

Requests that pin an explicit view subset get a planner of their own
(the fingerprint covers only the pinned views) and are parsed and ranked
against the full catalog like any other request; their fingerprints
respond to invalidation independently of full-catalog traffic.

Response memo
    A response's rewritings are a pure function of the fingerprint's
    *definitions* (no cardinalities: whether a view answers a query
    never reads the data) and the request's answer-determining fields
    (SQL text, strategy, ``max_steps``, ``unfold``,
    ``include_partial``); only their ranking reads cardinalities. So
    the cache keeps one bounded :class:`~repro.memo.Memo` of finished
    responses under those keys, apart from the planners, and stamps
    each with the counts it was ranked under. A hit whose stamp differs
    from the request's counts — an update moved them — is ranked again
    with :func:`repro.core.rewriter.rank` and stored under the new
    stamp: an update costs a re-rank, not a search. It is not a planner
    memo family, so a store never moves ``memo_version`` and nothing of
    it is ever published. Only textual requests without a budget (after
    the tenant cap) and without ``collect_metrics`` take part, and only
    ok, unexhausted responses are stored — from a key's second execution
    on: the first leaves a marker, so one-off texts never hold a
    response. ``trace`` does not matter — a traced hit carries a trace
    whose root holds one ``response_memo`` span (with a ``rank`` child
    when it was ranked again).

    A hit that comes back unchanged — untraced, its planner current and
    already exported, its stamp equal to the counts now — is answered by
    :meth:`PlannerCache.stored_response`, which neither ranks nor
    searches. :meth:`PlannerCache.run` answers those hits through it, and
    the daemon calls it on its event loop, before the hand-off to the
    worker thread.

Count-budgeted requests plan cold (the executor's determinism rule), so
they neither use nor displace a cached planner: they report ``cold``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from ..core.cost import estimate_cost
from ..core.planner import RewritePlanner
from ..core.rewriter import rank
from ..memo import MISSING, Memo
from ..obs.metrics import counter
from ..obs.trace import RewriteTrace, Tracer, span, tracing
from ..service.executor import execute_request
from ..service.requests import RewriteRequest, RewriteResponse
from .memo import MEMO_EXPORT_MAX
from .protocol import line_template, resolve_strategy, serving_keys

#: Planner paths, as reported by repro_serving_planner_path_total.
WARM_LOCAL = "warm_local"
WARM_SHARED = "warm_shared"
COLD = "cold"


PLANNER_PATHS = counter(
    "repro_serving_planner_path_total",
    "How requests obtained their planner: locally cached, "
    "warm-started from the memo tier, or cold.",
    ("path",),
)
RESPONSE_MEMO = counter(
    "repro_serving_response_memo_total",
    "Rewrite requests by response memo outcome: answered from a "
    "planner's finished responses (hit), executed (miss), or not "
    "memoizable (bypass).",
    ("outcome",),
)
PLANNER_EVICTIONS = counter(
    "repro_serving_planner_evictions_total",
    "Planners a PlannerCache dropped past MAX_PLANNERS fingerprints.",
)


@dataclass
class _CachedPlanner:
    """One fingerprint's planner and what this cache knows about it."""

    #: Tier epoch the planner was validated against.
    epoch: int
    planner: RewritePlanner
    #: ``planner.memo_version`` at the last export; -1 = never exported,
    #: so a new planner always exports after its first request.
    exported_version: int = -1


@dataclass(frozen=True)
class _Stored:
    """A finished response and the cardinalities it was ranked under."""

    response: RewriteResponse
    #: ``(the fingerprint's cardinalities, counts of from_views)``.
    stamp: tuple
    #: Views the query's FROM names outside the request's view set:
    #: ``original_cost`` reads their counts, so the stamp covers them.
    from_views: tuple[str, ...]

    def stamp_now(self, catalog, counts: tuple) -> tuple:
        """The stamp this response would carry if ranked now."""
        return (counts, tuple(map(catalog.row_count, self.from_views)))


def _memoizable(request: RewriteRequest) -> bool:
    return (
        isinstance(request.query, str)
        and request.budget is None
        and not request.collect_metrics
    )


def _memo_key(request: RewriteRequest, definitions: tuple) -> tuple:
    return (
        definitions,
        request.query,
        request.strategy,
        request.max_steps,
        request.unfold,
        request.include_partial,
    )


def _stamped(
    response: RewriteResponse,
    catalog,
    counts: tuple,
    view_names: tuple[str, ...],
) -> _Stored:
    """A fresh execution's response as stored, stamped with ``counts``
    (read before the search ran)."""
    from_views = tuple(
        dict.fromkeys(
            rel.name
            for rel in response.query.from_
            if catalog.is_view(rel.name) and rel.name not in view_names
        )
    )
    # Those views' counts could only be read now, after a search an
    # update may have overlapped: no stamp equals ``None``, so the first
    # hit ranks again and records them.
    return _Stored(
        replace(response, trace=None),
        (counts, None if from_views else ()),
        from_views,
    )


class PlannerCache:
    """The daemon's planners, validated against the memo tier's epoch."""

    #: Distinct fingerprints kept warm.
    MAX_PLANNERS = 8
    #: Finished responses kept per planner slot: the response memo holds
    #: up to ``MAX_PLANNERS * MAX_RESPONSES``.
    MAX_RESPONSES = 16

    def __init__(self, tier):
        self.tier = tier
        #: ``_CachedPlanner`` by fingerprint, least recently used first.
        self._planners = Memo(self.MAX_PLANNERS)
        #: ``_Stored`` (or a ``None`` marker) by definitions and fields.
        self._responses = Memo(self.MAX_PLANNERS * self.MAX_RESPONSES)

    def run(
        self,
        request: RewriteRequest,
        strategy: Optional[str] = None,
    ) -> tuple[RewriteResponse, tuple, tuple[str, ...], list, str]:
        """Execute one request; returns
        ``(response, fingerprint, view_names, memo_export, path)``.

        ``memo_export`` is the planner's post-request memo for the
        caller to publish into the tier — empty when the planner gained
        no entry since its last export, so there is nothing to publish;
        ``path`` reports how the planner was obtained (``cold`` for a
        count-budgeted request, which plans
        cold without touching the cache, so its export is always
        empty). ``strategy`` is a wire strategy name for callers that
        hold one beside the request; a pinning name overrides
        ``request.strategy``.
        """
        pinned = resolve_strategy(strategy)
        if pinned is not None:
            request = replace(request, strategy=pinned)
        key, definitions, counts = serving_keys(request)
        views = request.effective_views()
        view_names = tuple(v.name for v in views)
        response = self.stored_response(request)
        if response is not None:
            return response, key, view_names, [], WARM_LOCAL
        if request.has_count_budget():
            # execute_request would drop a warm planner anyway.
            cached, path = None, COLD
        else:
            cached, path = self._planner_for(key, views, request)
        if _memoizable(request):
            response = self._answer(
                cached, request, definitions, counts, view_names
            )
        else:
            RESPONSE_MEMO.labels("bypass").inc()
            response = execute_request(
                request,
                planner=None if cached is None else cached.planner,
                capture_errors=True,
            )
        export = []
        if cached is not None:
            version = cached.planner.memo_version
            if version != cached.exported_version:
                export = cached.planner.export_memos(MEMO_EXPORT_MAX)
                cached.exported_version = version
        PLANNER_PATHS.labels(path).inc()
        return response, key, view_names, export, path

    def stored_response(
        self, request: RewriteRequest
    ) -> Optional[RewriteResponse]:
        """``request``'s stored response when :meth:`run` would return it
        unchanged, with an empty export, on path ``warm_local``; else
        ``None``.

        That takes an untraced memoizable request whose planner is
        cached under the tier's current epoch and already exported, and
        a stored response whose stamp equals the counts now. The answer
        carries this request's ``request_id`` and ``elapsed``, and is
        counted and touched as :meth:`run` counts and touches a hit; on
        ``None`` nothing is counted or touched. It never ranks or
        searches, so the daemon calls it on its event loop.
        """
        if request.trace or not _memoizable(request):
            return None
        started = time.perf_counter()
        key, definitions, counts = serving_keys(request)
        cached = self._planners.peek(key)
        if (
            cached is MISSING
            or cached.epoch != self.tier.epoch()
            or cached.exported_version != cached.planner.memo_version
        ):
            return None
        memo_key = _memo_key(request, definitions)
        stored = self._responses.peek(memo_key)
        if not isinstance(stored, _Stored):
            return None
        if stored.stamp != stored.stamp_now(request.catalog, counts):
            return None
        self._planners.get(key)
        self._responses.get(memo_key)
        RESPONSE_MEMO.labels("hit").inc()
        PLANNER_PATHS.labels(WARM_LOCAL).inc()
        # A copy of the stored response, its line template included:
        # request_id and elapsed are that template's slots.
        line_template(stored.response)
        answer = object.__new__(RewriteResponse)
        answer.__dict__.update(
            stored.response.__dict__,
            request_id=request.request_id,
            elapsed=time.perf_counter() - started,
        )
        return answer

    def _answer(
        self,
        cached: _CachedPlanner,
        request: RewriteRequest,
        definitions: tuple,
        counts: tuple,
        view_names: tuple[str, ...],
    ) -> RewriteResponse:
        """A memoizable request :meth:`stored_response` did not answer:
        the stored response for a traced repeat or one whose counts moved
        (ranked again), else a fresh execution.

        A key's first complete execution stores only a ``None`` marker;
        the response is stored when the key comes back, so a one-off
        text never holds a stored response.
        """
        memo_key = _memo_key(request, definitions)
        started = time.perf_counter()
        tracer = Tracer() if request.trace else None
        with tracing(tracer), span("response_memo"):
            stored = self._responses.get(memo_key)
            if isinstance(stored, _Stored):
                response = self._current(
                    memo_key, stored, request.catalog, counts
                )
        if isinstance(stored, _Stored):
            RESPONSE_MEMO.labels("hit").inc()
            return replace(
                response,
                request_id=request.request_id,
                elapsed=time.perf_counter() - started,
                trace=RewriteTrace(tracer.finish()) if tracer else None,
            )
        RESPONSE_MEMO.labels("miss").inc()
        response = execute_request(
            request, planner=cached.planner, capture_errors=True
        )
        if response.ok and not response.exhausted:
            self._responses.put(
                memo_key,
                None
                if stored is MISSING
                else _stamped(response, request.catalog, counts, view_names),
            )
        return response

    def _current(
        self, memo_key, stored: _Stored, catalog, counts: tuple
    ) -> RewriteResponse:
        """``stored``'s response under the catalog's counts now: as
        stored when its stamp matches, else ranked again and stored."""
        stamp = stored.stamp_now(catalog, counts)
        if stamp == stored.stamp:
            return stored.response
        with span("rank"):
            response = replace(
                stored.response,
                ranked=tuple(rank(stored.response.rewritings, catalog)),
                original_cost=estimate_cost(stored.response.query, catalog),
            )
        self._responses.put(
            memo_key, replace(stored, response=response, stamp=stamp)
        )
        return response

    def _planner_for(
        self, key: tuple, views, request: RewriteRequest
    ) -> tuple[_CachedPlanner, str]:
        epoch = self.tier.epoch()
        # A hit is now the most recently used entry, so the replacement
        # stored below keeps that place.
        cached = self._planners.get(key, None)
        if cached is not None and cached.epoch == epoch:
            return cached, WARM_LOCAL
        # Epoch moved (or first sight): revalidate against the tier.
        planner = RewritePlanner(
            list(views), request.catalog, request.use_set_semantics
        )
        entry = self.tier.lookup(key)
        if entry is not None:
            planner.import_memos(entry.memo)
            path = WARM_SHARED
        else:
            path = COLD
        cached = _CachedPlanner(epoch, planner)
        evictions = self._planners.evictions
        self._planners.put(key, cached)
        PLANNER_EVICTIONS.inc(self._planners.evictions - evictions)
        return cached, path

