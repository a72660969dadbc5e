"""The concurrent batch rewriting service.

:func:`rewrite_batch` accepts many ``(query, views, budget)`` requests
at once, groups them by the planner's view-signature fingerprint
(:mod:`repro.service.batcher`) so identical view sets share one
planner and its memo warm-up, and shards the groups across an
execution backend:

``serial``
    one in-process loop, one planner per group for the length of the
    call — the debugging/determinism baseline and the ``auto`` choice
    for small batches;
``thread``
    a :class:`~concurrent.futures.ThreadPoolExecutor` — cheap dispatch,
    shared memory; each chunk plans on its own cold planner;
``process``
    a :class:`~concurrent.futures.ProcessPoolExecutor` — true
    parallelism for large CPU-bound batches. A search is cheap next to
    an executor round trip, so the unit of dispatch is a *bundle*: the
    batch's chunks are packed, in order and never split, into at most
    :data:`BUNDLES_PER_WORKER` bundles per worker of about equal request
    count, and each bundle is one future. Its payload (per chunk:
    catalog, views, semantics, requests; per bundle: the deadline
    expiry) is pickled once; the worker runs the chunks one after
    another, each on a cold planner, and ships back per-chunk results
    plus one metrics snapshot.

A batch keeps nothing between calls. A planner memo is a pure function
of a request's definitions, so warmth carried from one call to the next
could change a batch's speed but never its answers.

Every mode funnels each request through
:func:`repro.service.executor.execute_request`, so results are
mode-independent (pinned by the batch-parity differential harness). A
batch deadline degrades gracefully per :mod:`repro.service.degradation`:
late requests come back ``exhausted=True``, never dropped or raised. A
worker or pickling failure demotes each chunk of the affected bundle to
in-process execution — the N-requests-in, N-responses-out contract
survives backend loss.
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
from .batcher import RequestGroup, chunk_groups, group_requests
from .degradation import BatchDeadline, refused_response
from .executor import execute_request
from .requests import BatchResult, RewriteRequest, RewriteResponse

MODES = ("auto", "serial", "thread", "process")

#: auto mode: batches at least this large go to the process pool.
PROCESS_THRESHOLD = 64
#: auto mode: batches at most this large stay serial.
SERIAL_THRESHOLD = 8
#: process mode: futures per worker. One keeps every worker idle behind
#: the slowest bundle (a search's p99 is several times its p50); one per
#: chunk pays an executor round trip per request on a many-fingerprint
#: batch, which costs more than the searches do.
BUNDLES_PER_WORKER = 4

Chunk = tuple[RequestGroup, list[tuple[int, RewriteRequest]]]

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
    "Chunks demoted to in-process execution after a worker or pickling "
    "failure.",
)


def _available_cpus() -> int:
    """The cores this process may run on (a cpuset-limited container
    sees fewer than the host has)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _bundle_chunks(chunks: Sequence[Chunk], workers: int) -> list[list[Chunk]]:
    """Pack consecutive chunks into at most ``workers *
    BUNDLES_PER_WORKER`` bundles balanced by request count.

    A chunk is never split, and a batch with no more chunks than that
    gets one bundle per chunk.
    """
    limit = workers * BUNDLES_PER_WORKER
    if len(chunks) <= limit:
        return [[chunk] for chunk in chunks]
    # Every bundle but the last reaches ``target`` requests, so there
    # are at most ``limit`` of them.
    target = -(-sum(len(members) for _, members in chunks) // limit)
    bundles: list[list[Chunk]] = []
    current: list[Chunk] = []
    size = 0
    for chunk in chunks:
        current.append(chunk)
        size += len(chunk[1])
        if size >= target:
            bundles.append(current)
            current, size = [], 0
    if current:
        bundles.append(current)
    return bundles


def _cold_planner(group: RequestGroup) -> RewritePlanner:
    return RewritePlanner(group.views, group.catalog, group.use_set_semantics)


def _run_chunk(
    batch_reg: Optional[MetricsRegistry],
    members,
    planner: RewritePlanner,
    deadline: BatchDeadline,
) -> list[tuple[int, RewriteResponse]]:
    """Run one chunk's requests in order on the group's planner.

    Each member is parsed and ranked against its own catalog; the group
    key guarantees those are fingerprint-equal, so one planner serves
    them all. ``collecting`` shadows whatever registry the running
    thread had active, so chunk work lands in the batch aggregate only —
    the parent sees it once, when :func:`rewrite_batch` merges the
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


def _process_bundle(bundle: dict) -> dict:
    """Top-level process-pool entry point (must be importable to pickle).

    Runs the bundle's chunks one after another, each on a cold planner
    built in the worker. Returns per-chunk results plus the bundle's
    metrics snapshot for the master to merge.
    """
    deadline = BatchDeadline.until(bundle["expires_at"])
    # Worker-local registry: the snapshot ships back for the master to
    # merge exactly once.
    registry = MetricsRegistry() if bundle["collect_metrics"] else None
    outcomes = [
        {
            "results": _run_chunk(
                registry,
                chunk["members"],
                RewritePlanner(
                    chunk["views"],
                    chunk["catalog"],
                    chunk["use_set_semantics"],
                ),
                deadline,
            )
        }
        for chunk in bundle["chunks"]
    ]
    return {
        "chunks": outcomes,
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

    Requests with equal (catalog, views, semantics) fingerprints share
    a planner. ``mode`` picks the backend (``serial`` / ``thread`` /
    ``process``, default ``auto`` by batch size) and ``workers`` its
    width (0 or None: the usable CPU count). ``deadline`` (seconds)
    bounds the entire batch wall-clock; see
    :mod:`repro.service.degradation` for the overflow contract. Plain
    strings are rejected — requests must be :class:`RewriteRequest`
    instances so each carries its catalog.
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
    batch_deadline = BatchDeadline(deadline)
    groups = group_requests(requests)
    chunks = chunk_groups(groups, workers)

    responses: list[Optional[RewriteResponse]] = [None] * len(requests)

    # Batch-scoped metrics: when an enclosing registry is active,
    # every chunk (serial, thread task, process worker, demoted
    # re-run) records into a batch-local aggregate which folds into
    # the parent exactly once below — the no-double-counting
    # contract for all three modes. With metrics off this is None
    # and the runners skip all registry work.
    parent_metrics = current_metrics()
    batch_reg = MetricsRegistry() if parent_metrics is not None else None

    if mode == "serial":
        _run_serial(chunks, batch_deadline, responses, batch_reg)
    elif mode == "thread":
        _run_threaded(chunks, workers, batch_deadline, responses, batch_reg)
    else:
        _run_processes(chunks, workers, batch_deadline, responses, batch_reg)

    # The per-mode runners fill every position; a hole here would be
    # a bug in this module, not in the caller's batch.
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
            "groups": len(groups),
            "chunks": len(chunks),
            "elapsed": round(elapsed, 6),
            "requests_per_second": (
                round(len(final) / elapsed, 3) if elapsed > 0 else None
            ),
            "deadline": batch_deadline.seconds,
            "exhausted": sum(1 for r in final if r.exhausted),
            "degraded": sum(1 for r in final if r.degraded),
            "errors": sum(1 for r in final if r.error is not None),
        },
        trace=_stitch_trace(final),
    )


def _run_serial(chunks, deadline, responses, batch_reg) -> None:
    # One planner per group for the call: chunk_groups emits a split
    # group's chunks back to back, and they share it.
    group = planner = None
    for chunk_group, members in chunks:
        if chunk_group is not group:
            group, planner = chunk_group, _cold_planner(chunk_group)
        for position, response in _run_chunk(
            batch_reg, members, planner, deadline
        ):
            responses[position] = response


def _run_threaded(chunks, workers, deadline, responses, batch_reg) -> None:
    def task(group, members):
        # Entered inside the worker thread: ``collecting`` is
        # thread-local, so each task must scope its own extent. The
        # shared batch registry is thread-safe, so tasks record into
        # it directly — nothing to merge, nothing counted twice.
        return _run_chunk(batch_reg, members, _cold_planner(group), deadline)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(task, group, members) for group, members in chunks
        ]
        for future in futures:
            for position, response in future.result():
                responses[position] = response


def _run_processes(chunks, workers, deadline, responses, batch_reg) -> None:
    expires_at = deadline.wall_expiry()

    def demote(bundle):
        # Failure isolation stays per chunk, whatever was shipped.
        for group, members in bundle:
            if batch_reg is not None:
                batch_reg.family(CHUNK_DEMOTIONS).inc()
            for position, response in _run_chunk(
                batch_reg, members, _cold_planner(group), deadline
            ):
                responses[position] = response

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = []
            for bundle in _bundle_chunks(chunks, workers):
                payload = {
                    "chunks": [
                        {
                            "catalog": group.catalog,
                            "views": group.views,
                            "use_set_semantics": group.use_set_semantics,
                            "members": members,
                        }
                        for group, members in bundle
                    ],
                    "expires_at": expires_at,
                    "collect_metrics": batch_reg is not None,
                }
                try:
                    future = pool.submit(_process_bundle, payload)
                except Exception:
                    # Dead or broken pool: run this bundle's chunks
                    # in-process.
                    demote(bundle)
                    continue
                pending.append((future, bundle))
            for future, bundle in pending:
                try:
                    outcome = future.result()
                except Exception:
                    # Unpicklable payload or dead worker.
                    demote(bundle)
                    continue
                for done in outcome["chunks"]:
                    for position, response in done["results"]:
                        responses[position] = response
                if outcome["metrics"] and batch_reg is not None:
                    # One merge per worker snapshot: the worker's
                    # registry was born empty, so these counts exist
                    # nowhere else.
                    batch_reg.merge(outcome["metrics"])
    except Exception:
        # Pool construction itself failed (restricted platforms):
        # run everything in-process rather than failing the batch.
        demote(
            chunk
            for chunk in chunks
            if any(responses[p] is None for p, _ in chunk[1])
        )


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
