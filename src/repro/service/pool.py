"""The concurrent batch rewriting service.

:func:`rewrite_batch` accepts many ``(query, views, budget)`` requests
at once and cuts them into contiguous *slices* in submission order. A
slice is the unit of work: its runner groups the slice's own members by
the planner's view-signature fingerprint (:mod:`repro.service.batcher`),
so identical view sets share one planner and its memo warm-up, and runs
each group on one cold planner. The calling thread only slices, runs its
own share and stitches the responses back in order:

``serial``
    the caller runs the whole batch as one slice, so every group keeps
    one planner for the length of the call — the debugging/determinism
    baseline and the ``auto`` choice for small batches;
``thread``
    the batch is cut into :data:`SLICES_PER_WORKER` slices per worker; a
    :class:`~concurrent.futures.ThreadPoolExecutor` of ``workers - 1``
    runners takes all but the caller's share (``len(slices) //
    workers``), which the calling thread runs itself;
``process``
    the same split over a
    :class:`~concurrent.futures.ProcessPoolExecutor` — true parallelism
    for large CPU-bound batches. A shipped slice's payload (its
    requests and the batch's deadline expiry) is pickled once, and it
    returns its responses plus one metrics snapshot; the caller's own
    slices are never pickled.

A search is cheap next to an executor round trip, so a few slices per
worker, not one future per group, keep the runners busy. With one
worker an explicit ``thread`` or ``process`` batch ships every slice.

A batch keeps nothing between calls. A planner memo is a pure function
of a request's definitions, so warmth carried from one call to the next
could change a batch's speed but never its answers.

Every mode funnels each request through
:func:`repro.service.executor.execute_request`, so results are
mode-independent (pinned by the batch-parity differential harness). A
batch deadline degrades gracefully per :mod:`repro.service.degradation`:
late requests come back ``exhausted=True``, never dropped or raised. A
slice whose worker or pickling fails is re-run in-process — the
N-requests-in, N-responses-out contract survives backend loss.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Optional, Sequence

from ..core.planner import RewritePlanner
from ..obs.metrics import (
    MetricsRegistry,
    collecting,
    counter,
    current_metrics,
    histogram,
)
from ..obs.trace import RewriteTrace, merge_spans
from .batcher import group_requests
from .degradation import BatchDeadline, refused_response
from .executor import execute_request
from .requests import BatchResult, RewriteRequest, RewriteResponse

MODES = ("auto", "serial", "thread", "process")

#: auto mode: batches at least this large go to the process pool.
PROCESS_THRESHOLD = 64
#: auto mode: batches at most this large stay serial.
SERIAL_THRESHOLD = 8
#: thread/process mode: slices per worker. One keeps every runner idle
#: behind the slowest slice (a search's p99 is several times its p50);
#: one per request pays an executor round trip per request on a
#: many-fingerprint batch, which costs more than the searches do.
SLICES_PER_WORKER = 4

REFUSALS = counter(
    "repro_service_refusals_total",
    "Requests refused outright by an expired batch deadline.",
)
BATCHES = counter(
    "repro_service_batches_total",
    "Batches executed, by resolved mode.",
    ("mode",),
)
BATCH_SECONDS = histogram(
    "repro_service_batch_seconds", "Wall-clock latency of whole batches."
)
CHUNK_DEMOTIONS = counter(
    "repro_service_chunk_demotions_total",
    "Slices re-run in-process after a worker or pickling failure.",
)


def _available_cpus() -> int:
    """The cores this process may run on (a cpuset-limited container
    sees fewer than the host has)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _slices(n: int, parts: int) -> list[range]:
    """``range(n)`` cut into at most ``parts`` contiguous runs whose
    lengths differ by at most one."""
    parts = min(parts, n)
    if not parts:
        return []
    size, extra = divmod(n, parts)
    out, start = [], 0
    for index in range(parts):
        stop = start + size + (index < extra)
        out.append(range(start, stop))
        start = stop
    return out


def _run_chunk(
    batch_reg: Optional[MetricsRegistry],
    members,
    planner: RewritePlanner,
    deadline: BatchDeadline,
) -> list[tuple[int, RewriteResponse]]:
    """Run one group's requests in order on the group's planner.

    Each member is parsed and ranked against its own catalog; the group
    key guarantees those are fingerprint-equal, so one planner serves
    them all. ``collecting`` shadows whatever registry the running
    thread had active, so the work lands in the given registry only —
    the parent sees it once, when :func:`rewrite_batch` merges the batch
    aggregate back.
    """
    out: list[tuple[int, RewriteResponse]] = []
    with collecting(batch_reg):
        for position, request in members:
            if deadline.expired:
                out.append((position, refused_response(request)))
                REFUSALS.inc()
                continue
            response = execute_request(
                request,
                planner=planner,
                budget=deadline.overlay(request),
                capture_errors=True,
            )
            out.append((position, response))
    return out


def _run_slice(
    requests: Sequence[RewriteRequest],
    deadline: BatchDeadline,
    registry: Optional[MetricsRegistry],
) -> tuple[list[RewriteResponse], int]:
    """Run one slice: group its own members, one cold planner per group.

    Returns the responses in slice order and the slice's group count.
    """
    responses: list = [None] * len(requests)
    groups = group_requests(requests)
    for group in groups:
        planner = RewritePlanner(
            group.views, group.catalog, group.use_set_semantics
        )
        for position, response in _run_chunk(
            registry, group.members, planner, deadline
        ):
            responses[position] = response
    return responses, len(groups)


def _ship_slice(payload: dict) -> dict:
    """Pool entry point for a slice the caller hands off (top-level, so
    a process pool can pickle it).

    The deadline is rebuilt from the batch's one wall-clock expiry, so a
    slice taken off the queue after it refuses every member. Metrics go
    to a registry born empty, whose snapshot ships back for the caller
    to merge exactly once.
    """
    registry = MetricsRegistry() if payload["collect_metrics"] else None
    responses, groups = _run_slice(
        payload["requests"],
        BatchDeadline.until(payload["expires_at"]),
        registry,
    )
    return {
        "responses": responses,
        "groups": groups,
        "metrics": (
            registry.snapshot().as_dict() if registry is not None else None
        ),
    }


def _resolve_mode(mode: str, n_requests: int, workers: int) -> str:
    if mode != "auto":
        return mode
    if workers <= 1 or n_requests <= SERIAL_THRESHOLD:
        return "serial"
    if n_requests < PROCESS_THRESHOLD:
        return "thread"
    return "process"


def rewrite_batch(
    requests: Sequence[RewriteRequest],
    *,
    mode: str = "auto",
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
) -> BatchResult:
    """Rewrite a whole batch of requests; N requests in, N responses out.

    Requests of one slice with equal (catalog, views, semantics)
    fingerprints share a planner. ``mode`` picks the backend
    (``serial`` / ``thread`` / ``process``, default ``auto`` by batch
    size) and ``workers`` its width, the calling thread included (0 or
    None: the usable CPU count). ``deadline`` (seconds) bounds the
    entire batch wall-clock; see :mod:`repro.service.degradation` for
    the overflow contract. Plain strings are rejected — requests must
    be :class:`RewriteRequest` instances so each carries its catalog.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if workers is not None and workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 or None: CPU count), got {workers}"
        )
    started = time.perf_counter()
    requests = list(requests)
    for request in requests:
        if not isinstance(request, RewriteRequest):
            raise TypeError(
                "rewrite_batch() takes RewriteRequest instances; wrap "
                "plain queries with repro.api.RewriteRequest(query, "
                "catalog)"
            )
    workers = workers or _available_cpus()
    mode = _resolve_mode(mode, len(requests), workers)
    slices = _slices(
        len(requests), 1 if mode == "serial" else SLICES_PER_WORKER * workers
    )

    # Batch-scoped metrics: when an enclosing registry is active, the
    # caller's slices record into a batch-local aggregate, each shipped
    # slice's snapshot is merged into it once, and it folds into the
    # parent exactly once below — the no-double-counting contract for
    # all three modes. With metrics off this is None and the runners
    # skip all registry work.
    parent_metrics = current_metrics()
    batch_reg = MetricsRegistry() if parent_metrics is not None else None
    responses, groups = _run_slices(
        requests, slices, mode, workers, BatchDeadline(deadline), batch_reg
    )

    # The runners fill every position; a hole here would be a bug in
    # this module, not in the caller's batch.
    final = tuple(
        r if r is not None else RewriteResponse(error="internal: lost")
        for r in responses
    )
    elapsed = time.perf_counter() - started
    batch_metrics = None
    if batch_reg is not None:
        batch_reg.family(BATCHES).labels(mode).inc()
        batch_reg.family(BATCH_SECONDS).observe(elapsed)
        snapshot = batch_reg.snapshot()
        parent_metrics.merge(snapshot)
        batch_metrics = snapshot.as_dict()
    return BatchResult(
        responses=final,
        metrics=batch_metrics,
        report={
            "mode": mode,
            "workers": workers if mode != "serial" else 1,
            "requests": len(final),
            "groups": groups,
            "chunks": len(slices),
            "elapsed": round(elapsed, 6),
            "requests_per_second": (
                round(len(final) / elapsed, 3) if elapsed > 0 else None
            ),
            "deadline": deadline,
            "exhausted": sum(1 for r in final if r.exhausted),
            "degraded": sum(1 for r in final if r.degraded),
            "errors": sum(1 for r in final if r.error is not None),
        },
        trace=_stitch_trace(final),
    )


def _run_slices(
    requests, slices, mode, workers, deadline, batch_reg
) -> tuple[list[Optional[RewriteResponse]], int]:
    """The batch's responses, position by position, and the group count
    summed over slices."""
    responses: list[Optional[RewriteResponse]] = [None] * len(requests)

    def run_here(span: range) -> int:
        got, groups = _run_slice(
            requests[span.start:span.stop], deadline, batch_reg
        )
        responses[span.start:span.stop] = got
        return groups

    def demote(span: range) -> int:
        if batch_reg is not None:
            batch_reg.family(CHUNK_DEMOTIONS).inc()
        return run_here(span)

    if mode == "serial":
        return responses, sum(run_here(span) for span in slices)
    own = len(slices) // workers if workers > 1 else 0
    shipped, local = slices[: len(slices) - own], slices[len(slices) - own:]
    executor = ThreadPoolExecutor if mode == "thread" else ProcessPoolExecutor
    expires_at = deadline.wall_expiry()
    groups = 0
    try:
        with executor(max_workers=max(1, workers - 1)) as pool:
            pending = []
            for span in shipped:
                payload = {
                    "requests": requests[span.start:span.stop],
                    "expires_at": expires_at,
                    "collect_metrics": batch_reg is not None,
                }
                try:
                    pending.append((span, pool.submit(_ship_slice, payload)))
                except Exception:
                    # Dead or broken pool: run this slice in-process.
                    groups += demote(span)
            for span in local:
                groups += run_here(span)
            for span, future in pending:
                try:
                    outcome = future.result()
                except Exception:
                    # Unpicklable payload or dead worker.
                    groups += demote(span)
                    continue
                responses[span.start:span.stop] = outcome["responses"]
                groups += outcome["groups"]
                if outcome["metrics"] and batch_reg is not None:
                    batch_reg.merge(outcome["metrics"])
    except Exception:
        # Pool construction itself failed (restricted platforms): run
        # what is left in-process rather than failing the batch.
        for span in slices:
            if any(responses[p] is None for p in span):
                groups += demote(span)
    return responses, groups


def _stitch_trace(
    responses: Sequence[RewriteResponse],
) -> Optional[RewriteTrace]:
    """One batch-level trace from the per-request trees."""
    traced = [r.trace for r in responses if r.trace is not None]
    if not traced:
        return None
    counters: dict[str, int] = {}
    for trace in traced:
        for name, value in trace.counters.items():
            counters[name] = counters.get(name, 0) + value
    counters["traced_requests"] = len(traced)
    return RewriteTrace(
        merge_spans([t.root for t in traced], name="batch"),
        counters=counters,
    )
