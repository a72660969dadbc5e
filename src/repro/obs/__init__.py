"""Observability + robustness for the rewrite search.

Three facilities, threaded through the whole rewrite path
(:mod:`repro.core.planner`, :mod:`repro.core.multiview`,
:mod:`repro.mappings.enumerate_mappings`, :mod:`repro.core.rewriter`):

* :mod:`repro.obs.trace` — hierarchical stage spans and counters with a
  no-op fast path when disabled, surfaced as ``RewriteResult.trace`` and
  ``repro explain --trace``;
* :mod:`repro.obs.budget` — per-search limits (wall-clock deadline,
  mapping and candidate caps) with anytime degradation: partial-but-
  sound results tagged ``exhausted=True`` instead of exceptions;
* :mod:`repro.obs.metrics` — production counters/gauges/histograms with
  Prometheus text exposition and picklable, mergeable snapshots,
  each family declared once as a handle that is free when off.

The tracer and the metrics registry share one thread-local scope
(:class:`collecting`; :func:`tracing` is the same scope for a tracer),
and the planner folds its per-search counters once into both.

See ``docs/observability.md`` for the user-facing guide.
"""

from .budget import BudgetMeter, SearchBudget, ensure_meter
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_SCHEMA,
    MetricsRegistry,
    MetricsSnapshot,
    collecting,
    current_metrics,
    render_prometheus,
    set_global_metrics,
    timed,
)
from .trace import (
    RewriteTrace,
    Span,
    Tracer,
    merge_spans,
    span,
    tracing,
)

__all__ = [
    "BudgetMeter",
    "SearchBudget",
    "ensure_meter",
    "DEFAULT_LATENCY_BUCKETS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "MetricsSnapshot",
    "collecting",
    "current_metrics",
    "render_prometheus",
    "set_global_metrics",
    "timed",
    "RewriteTrace",
    "Span",
    "Tracer",
    "merge_spans",
    "span",
    "tracing",
]
