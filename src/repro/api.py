"""The unified public facade — the single documented entry point.

:func:`rewrite`
    one query, one response — the stable entry point that the CLI, the
    batch service and the serving daemon all reduce to;
:func:`rewrite_batch`
    many requests at once (grouped by view signature, optionally
    sharded across workers, bounded by a batch deadline); the
    :func:`repro.service.rewrite_batch` re-exported unchanged;
:func:`explain`
    per-condition usability diagnoses for every candidate view;
:func:`rewrite_iterative`
    the paper's Section 6 iterative improvement loop, one best
    single-view rewriting at a time;
:func:`connect`
    a client for a running ``repro serve`` daemon (TCP or Unix socket),
    speaking the same ``repro-api/1`` envelope as every ``--json``
    command.

All responses project to JSON under the versioned ``repro-api/1``
schema. :func:`to_envelope` is the one serializer behind every CLI
``--json`` output and every daemon response line: top-level ``schema``,
``kind``, ``ok`` and exactly one of ``result`` / ``error``, so output
stays machine-checkable across commands and releases (``docs/api.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .blocks.normalize import parse_query
from .blocks.query_block import QueryBlock, ViewDef
from .blocks.to_sql import block_to_sql
from .catalog.schema import Catalog
from .core.explain import UsabilityDiagnosis, explain_usability
from .core.result import Rewriting
from .obs.budget import BudgetMeter, SearchBudget
from .service.executor import execute_request
from .service.pool import rewrite_batch
from .service.requests import (
    API_SCHEMA,
    BatchResult,
    RewriteRequest,
    RewriteResponse,
)

__all__ = [
    "API_SCHEMA",
    "BatchResult",
    "ExplainResponse",
    "RewriteRequest",
    "RewriteResponse",
    "connect",
    "explain",
    "rewrite",
    "rewrite_batch",
    "rewrite_iterative",
    "to_envelope",
]

BudgetLike = Union[SearchBudget, BudgetMeter, None]


def to_envelope(
    payload=None,
    *,
    kind: Optional[str] = None,
    error=None,
    request_id=None,
) -> dict:
    """Wrap any API payload in the consolidated ``repro-api/1`` envelope.

    ``payload`` may be a dict, anything with ``to_json_dict()``, or
    ``None``. An inner ``schema`` tag is dropped (the envelope carries
    the version) and an inner ``kind`` is hoisted to the top level; an
    inner non-null ``error`` field (the batch service's captured-error
    contract) marks the envelope ``ok: false`` while keeping the
    degraded result available. ``request_id`` (or the payload's own
    ``request_id``/``id``) is echoed as top-level ``id`` so clients of
    the serving daemon can pipeline.
    """
    if payload is not None and hasattr(payload, "to_json_dict"):
        payload = payload.to_json_dict()
    result = dict(payload) if payload is not None else None
    if result is not None:
        result.pop("schema", None)
        inner_kind = result.pop("kind", None)
        kind = kind or inner_kind
        if error is None and result.get("error") is not None:
            error = result["error"]
    doc = {
        "schema": API_SCHEMA,
        "kind": kind or "result",
        "ok": error is None,
    }
    if request_id is None and result is not None:
        request_id = result.get("request_id")
        if request_id is None:
            request_id = result.get("id")
    if request_id is not None:
        doc["id"] = request_id
    if result is not None:
        doc["result"] = result
    if error is not None:
        doc["error"] = (
            dict(error)
            if isinstance(error, dict)
            else {"message": str(error)}
        )
    return doc


def connect(address, timeout: Optional[float] = 10.0):
    """A synchronous client for a running ``repro serve`` daemon.

    ``address`` accepts ``(host, port)``, ``"host:port"``,
    ``"tcp://host:port"``, or ``"unix:///path/to.sock"``. Returns a
    :class:`repro.serving.client.ServingClient` (a context manager);
    see ``docs/serving.md`` for the wire protocol.
    """
    from .serving.client import ServingClient

    return ServingClient.connect(address, timeout=timeout)


def rewrite(
    query: Union[str, QueryBlock],
    catalog: Optional[Catalog] = None,
    views: Optional[Sequence[ViewDef]] = None,
    *,
    budget: BudgetLike = None,
    max_steps: int = 3,
    unfold: bool = False,
    use_set_semantics: bool = True,
    include_partial: bool = True,
    trace: bool = False,
    collect_metrics: bool = False,
    request_id: Optional[str] = None,
    strategy: Optional[str] = None,
) -> RewriteResponse:
    """Rewrite one query over materialized views.

    With a ``catalog``, textual queries parse against it and results
    come back cost-ranked (``response.ranked``, ``response.best()``).
    Without one, ``query`` must be a pre-parsed :class:`QueryBlock` and
    candidates are reported in discovery order only. ``budget`` accepts
    a :class:`SearchBudget` or an already-running :class:`BudgetMeter`
    (to span several calls with one budget). ``collect_metrics=True``
    attaches a ``repro-metrics/1`` snapshot of exactly this request's
    counters to ``response.metrics``. ``strategy`` picks the planner
    strategy (``c1c4`` default or ``cohen_nutt`` — see
    :mod:`repro.strategies` and ``docs/strategies.md``). Errors raise
    :class:`~repro.errors.ReproError`; the batch path instead captures
    them per request.
    """
    from .strategies import normalize_strategy

    request = RewriteRequest(
        query=query,
        catalog=catalog,
        views=tuple(views) if views is not None else None,
        budget=budget if isinstance(budget, SearchBudget) else None,
        max_steps=max_steps,
        unfold=unfold,
        use_set_semantics=use_set_semantics,
        include_partial=include_partial,
        trace=trace,
        collect_metrics=collect_metrics,
        request_id=request_id,
        strategy=normalize_strategy(strategy),
    )
    if isinstance(budget, BudgetMeter):
        # A live meter cannot ride inside the (picklable) request; pass
        # it as the execution-time overlay instead.
        return execute_request(request, budget=budget)
    return execute_request(request)


@dataclass(frozen=True)
class ExplainResponse:
    """Per-view usability diagnoses for one query."""

    query: QueryBlock
    diagnoses: tuple[UsabilityDiagnosis, ...]

    @property
    def usable_views(self) -> tuple[str, ...]:
        return tuple(
            d.view.name for d in self.diagnoses if d.usable
        )

    def summary(self) -> str:
        return "\n\n".join(d.summary() for d in self.diagnoses)

    def to_json_dict(self) -> dict:
        """The ``repro-api/1`` projection of the diagnoses."""
        return {
            "schema": API_SCHEMA,
            "kind": "explain",
            "query": block_to_sql(self.query),
            "views": [
                {
                    "name": d.view.name,
                    "usable": d.usable,
                    "scope_failure": d.scope_failure,
                    "summary": d.summary(),
                }
                for d in self.diagnoses
            ],
        }


def explain(
    query: Union[str, QueryBlock],
    catalog: Catalog,
    view: Optional[str] = None,
) -> ExplainResponse:
    """Diagnose why each view is or is not usable for ``query``.

    ``view`` restricts the diagnosis to one registered view by name.
    The catalog's keys are used, so views usable only through the
    Section 5.2 many-to-1 relaxation diagnose as usable, as they are for
    :func:`rewrite`.
    """
    if isinstance(query, str):
        query = parse_query(query, catalog)
    if view is not None:
        views = [catalog.view(view)]
    else:
        views = list(catalog.views.values())
    return ExplainResponse(
        query=query,
        diagnoses=tuple(explain_usability(query, v, catalog) for v in views),
    )


def rewrite_iterative(
    query: QueryBlock,
    views: Sequence[ViewDef],
    catalog: Optional[Catalog] = None,
    use_set_semantics: bool = False,
    budget: BudgetLike = None,
) -> Optional[Rewriting]:
    """One best single-view rewriting, or ``None`` (Section 6 loop).

    The facade-level home of the paper's iterative improvement loop
    (formerly also reachable as ``repro.rewrite_iteratively``).
    """
    from .core.multiview import rewrite_iteratively as _impl

    return _impl(
        query,
        views,
        catalog=catalog,
        use_set_semantics=use_set_semantics,
        budget=budget,
    )
