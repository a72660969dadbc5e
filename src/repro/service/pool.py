"""The concurrent batch rewriting service.

:class:`BatchRewriteService` accepts many ``(query, views, budget)``
requests at once, groups them by the planner's view-signature
fingerprint (:mod:`repro.service.batcher`) so identical view sets share
closure/residual memo warm-up, and shards the groups across an
execution backend:

``serial``
    one in-process loop, live planners cached across batches — the
    debugging/determinism baseline and the ``auto`` choice for small
    batches;
``thread``
    a :class:`~concurrent.futures.ThreadPoolExecutor` — cheap dispatch,
    shared memory; per-chunk planners warm-started from the service's
    memo store;
``process``
    a :class:`~concurrent.futures.ProcessPoolExecutor` — true
    parallelism for large CPU-bound batches; chunk payloads (catalog,
    views, requests, exported planner memo, cache snapshot) are pickled
    to workers and planner memos ship back for the next batch's
    warm start.

Every mode funnels each request through
:func:`repro.service.executor.execute_request`, so results are
mode-independent (pinned by the batch-parity differential harness). A
batch deadline degrades gracefully per :mod:`repro.service.degradation`:
late requests come back ``exhausted=True``, never dropped or raised. A
worker or pickling failure demotes the affected chunk to in-process
execution — the N-requests-in, N-responses-out contract survives
backend loss.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Optional, Sequence, Union

from ..cache import CacheSnapshot, QueryCache
from ..core.planner import RewritePlanner
from ..memo import Memo
from ..obs.metrics import MetricsRegistry, collecting, current_metrics
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


def _execute_chunk(
    members,
    planner: Optional[RewritePlanner],
    deadline: Optional[BatchDeadline],
    snapshot: Optional[CacheSnapshot],
) -> list[tuple[int, RewriteResponse]]:
    """Run one chunk's requests in order on the group's planner.

    Each member is parsed and ranked against its own catalog; the group
    key guarantees those are fingerprint-equal, so one planner serves
    them all.
    """
    out: list[tuple[int, RewriteResponse]] = []
    for position, request in members:
        if deadline is not None and deadline.expired:
            out.append((position, refused_response(request)))
            metrics = current_metrics()
            if metrics is not None:
                metrics.counter(
                    "repro_service_refusals_total",
                    "Requests refused outright by an expired batch "
                    "deadline.",
                ).inc()
            continue
        overlay = (
            deadline.overlay(request)
            if deadline is not None
            else request.budget
        )
        response = execute_request(
            request,
            planner=planner,
            budget=overlay,
            cache_snapshot=snapshot,
            capture_errors=True,
        )
        out.append((position, response))
    return out


def _run_chunk_collected(
    batch_reg: Optional[MetricsRegistry],
    *args,
) -> list[tuple[int, RewriteResponse]]:
    """Run one in-process chunk, scoped to the batch registry when on.

    ``collecting`` shadows whatever registry the submitting thread had
    active, so chunk work lands in the batch aggregate only — the
    parent sees it once, when ``submit`` merges the aggregate back.
    """
    if batch_reg is None:
        return _execute_chunk(*args)
    with collecting(batch_reg):
        return _execute_chunk(*args)


def _process_chunk(payload: dict) -> dict:
    """Top-level process-pool entry point (must be importable to pickle).

    Rebuilds the chunk's planner in the worker, warm-starts it from the
    shipped memo, runs the chunk, and returns results plus the memo
    export and cache-lookup counters for the master to merge.
    """
    deadline = BatchDeadline(payload["remaining"])
    snapshot = payload["snapshot"]
    planner = RewritePlanner(
        list(payload["views"]),
        payload["catalog"],
        payload["use_set_semantics"],
    )
    if payload["memo"]:
        planner.import_memos(payload["memo"])
    # Worker-local registry: the snapshot ships back for the master to
    # merge exactly once, mirroring the memo/cache-stats discipline.
    registry = (
        MetricsRegistry() if payload.get("collect_metrics") else None
    )
    results = _run_chunk_collected(
        registry, payload["members"], planner, deadline, snapshot
    )
    return {
        "results": results,
        "memo": planner.export_memos(payload["memo_export_max"]),
        "cache_stats": (
            snapshot.stats.as_dict() if snapshot is not None else None
        ),
        "planner_stats": planner.stats.as_dict(),
        "metrics": (
            registry.snapshot().as_dict() if registry is not None else None
        ),
    }


class BatchRewriteService:
    """A reusable batch front end over the rewrite search.

    One instance amortizes planner state across :meth:`submit` calls:
    serial batches keep live planners per view-set fingerprint;
    thread/process batches keep exported substitution memos and ship
    them to workers for warm start. ``cache`` (a
    :class:`repro.cache.QueryCache`) is probed read-only before each
    search — workers receive a consistent snapshot and their lookup
    counters merge back into the live cache's stats.
    """

    #: fingerprints each warm store (live planners, exported memos)
    #: retains; past it the least recently used fingerprint is evicted.
    MEMO_STORE_MAX = 32
    #: entries per memo family shipped per chunk / kept per export.
    MEMO_EXPORT_MAX = 2048

    def __init__(
        self,
        *,
        mode: str = "auto",
        workers: Optional[int] = None,
        batch_deadline: Optional[float] = None,
        cache: Optional[QueryCache] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.workers = workers
        self.batch_deadline = batch_deadline
        self.cache = cache
        # The warm stores, by group fingerprint: serial mode's live
        # planners and the other modes' exported memos.
        self._planners = Memo(self.MEMO_STORE_MAX)
        self._memo_store = Memo(self.MEMO_STORE_MAX)

    # ------------------------------------------------------------------

    def _resolve_mode(self, n_requests: int, workers: int) -> str:
        if self.mode != "auto":
            return self.mode
        if workers <= 1 or n_requests <= SERIAL_THRESHOLD:
            return "serial"
        if n_requests < PROCESS_THRESHOLD:
            return "thread"
        return "process"

    def _live_planner(self, group: RequestGroup) -> RewritePlanner:
        """Serial mode: one long-lived planner per fingerprint."""
        planner = self._planners.get(group.key, None)
        if planner is None:
            planner = RewritePlanner(
                list(group.views), group.catalog, group.use_set_semantics
            )
            self._planners.put(group.key, planner)
        return planner

    def _fresh_planner(self, group: RequestGroup) -> RewritePlanner:
        """Thread/process mode: per-chunk planner, memo warm-started."""
        planner = RewritePlanner(
            list(group.views), group.catalog, group.use_set_semantics
        )
        memo = self._memo_store.get(group.key, None)
        if memo:
            planner.import_memos(memo)
        return planner

    def _store_memo(self, key: tuple, export: list) -> None:
        if export:
            self._memo_store.put(key, export)

    def _fresh_snapshot(self) -> Optional[CacheSnapshot]:
        if self.cache is None:
            return None
        return self.cache.snapshot()

    # ------------------------------------------------------------------

    def submit(
        self,
        requests: Sequence[Union[RewriteRequest, str]],
        *,
        deadline: Optional[float] = None,
    ) -> BatchResult:
        """Rewrite a whole batch; always len(requests) responses back.

        ``deadline`` (seconds, overriding the service default) bounds
        the entire batch wall-clock; see :mod:`repro.service.degradation`
        for the overflow contract. Plain strings are rejected — requests
        must be :class:`RewriteRequest` instances so each carries its
        catalog.
        """
        import time

        started = time.perf_counter()
        requests = list(requests)
        for request in requests:
            if not isinstance(request, RewriteRequest):
                raise TypeError(
                    "submit() takes RewriteRequest instances; wrap plain "
                    "queries with repro.api.RewriteRequest(query, catalog)"
                )
        workers = self.workers or os.cpu_count() or 1
        mode = self._resolve_mode(len(requests), workers)
        batch_deadline = BatchDeadline(
            deadline if deadline is not None else self.batch_deadline
        )
        groups = group_requests(requests)
        chunks = chunk_groups(groups, workers)

        responses: list[Optional[RewriteResponse]] = [None] * len(requests)
        planner_stats: dict[str, int] = {}
        memo_imported = sum(
            len(self._memo_store.get(g.key, ())) for g in groups
        )

        # Batch-scoped metrics: when an enclosing registry is active,
        # every chunk (serial, thread task, process worker, demoted
        # re-run) records into a batch-local aggregate which folds into
        # the parent exactly once below — the no-double-counting
        # contract for all three modes. With metrics off this is None
        # and the runners skip all registry work.
        parent_metrics = current_metrics()
        batch_reg = MetricsRegistry() if parent_metrics is not None else None

        if mode == "serial":
            self._run_serial(
                chunks, batch_deadline, responses, planner_stats, batch_reg
            )
        elif mode == "thread":
            self._run_threaded(
                chunks, workers, batch_deadline, responses, planner_stats,
                batch_reg,
            )
        else:
            self._run_processes(
                chunks, workers, batch_deadline, responses, planner_stats,
                batch_reg,
            )

        # The per-mode runners fill every position; a hole here would be
        # a bug in this module, not in the caller's batch.
        final = tuple(
            r if r is not None else RewriteResponse(error="internal: lost")
            for r in responses
        )
        elapsed = time.perf_counter() - started
        batch_metrics = None
        if batch_reg is not None:
            batch_reg.counter(
                "repro_service_batches_total",
                "Batches executed, by resolved mode.",
                ("mode",),
            ).labels(mode).inc()
            batch_reg.histogram(
                "repro_service_batch_seconds",
                "Wall-clock latency of whole batches.",
            ).observe(elapsed)
            snapshot = batch_reg.snapshot()
            parent_metrics.merge(snapshot)
            batch_metrics = snapshot.as_dict()
        result = BatchResult(
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
                "memo_entries_imported": memo_imported,
                "planner": planner_stats,
            },
            trace=self._stitch_trace(final),
        )
        return result

    # ------------------------------------------------------------------

    def _merge_planner_stats(self, into: dict, stats: dict) -> None:
        for name, value in stats.items():
            if isinstance(value, int):
                into[name] = into.get(name, 0) + value

    def _run_serial(self, chunks, deadline, responses, planner_stats,
                    batch_reg):
        for group, members in chunks:
            planner = self._live_planner(group)
            before = planner.stats.as_dict()
            snapshot = self._fresh_snapshot()
            for position, response in _run_chunk_collected(
                batch_reg, members, planner, deadline, snapshot
            ):
                responses[position] = response
            after = planner.stats.as_dict()
            self._merge_planner_stats(
                planner_stats,
                {
                    k: v - before.get(k, 0)
                    for k, v in after.items()
                    if isinstance(v, int)
                },
            )
            if snapshot is not None and self.cache is not None:
                self.cache.merge_external(snapshot.stats)

    def _run_threaded(self, chunks, workers, deadline, responses,
                      planner_stats, batch_reg):
        def task(group, members):
            planner = self._fresh_planner(group)
            snapshot = self._fresh_snapshot()
            # Entered inside the worker thread: ``collecting`` is
            # thread-local, so each task must scope its own extent. The
            # shared batch registry is thread-safe, so tasks record into
            # it directly — nothing to merge, nothing counted twice.
            results = _run_chunk_collected(
                batch_reg, members, planner, deadline, snapshot
            )
            return group, results, planner, snapshot

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(task, group, members)
                for group, members in chunks
            ]
            for future in futures:
                group, results, planner, snapshot = future.result()
                for position, response in results:
                    responses[position] = response
                self._store_memo(
                    group.key, planner.export_memos(self.MEMO_EXPORT_MAX)
                )
                self._merge_planner_stats(
                    planner_stats, planner.stats.as_dict()
                )
                if snapshot is not None and self.cache is not None:
                    self.cache.merge_external(snapshot.stats)

    def _run_processes(self, chunks, workers, deadline, responses,
                       planner_stats, batch_reg):
        snapshot = self._fresh_snapshot()
        pending: dict[Future, tuple] = {}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for group, members in chunks:
                    payload = {
                        "catalog": group.catalog,
                        "views": group.views,
                        "use_set_semantics": group.use_set_semantics,
                        "members": members,
                        "memo": self._memo_store.get(group.key, None),
                        "remaining": deadline.remaining(),
                        "snapshot": snapshot,
                        "memo_export_max": self.MEMO_EXPORT_MAX,
                        "collect_metrics": batch_reg is not None,
                    }
                    try:
                        future = pool.submit(_process_chunk, payload)
                    except Exception:
                        # Unpicklable payload or dead pool: demote this
                        # chunk to in-process execution.
                        self._demote_chunk(
                            group, members, deadline, responses,
                            planner_stats, batch_reg,
                        )
                        continue
                    pending[future] = (group, members)
                for future in list(pending):
                    group, members = pending[future]
                    try:
                        outcome = future.result()
                    except Exception:
                        self._demote_chunk(
                            group, members, deadline, responses,
                            planner_stats, batch_reg,
                        )
                        continue
                    for position, response in outcome["results"]:
                        responses[position] = response
                    self._store_memo(group.key, outcome["memo"])
                    self._merge_planner_stats(
                        planner_stats, outcome["planner_stats"]
                    )
                    if outcome["cache_stats"] and self.cache is not None:
                        self.cache.merge_external(outcome["cache_stats"])
                    if outcome.get("metrics") and batch_reg is not None:
                        # One merge per worker snapshot: the worker's
                        # registry was born empty, so these counts exist
                        # nowhere else.
                        batch_reg.merge(outcome["metrics"])
        except Exception:
            # Pool construction itself failed (restricted platforms):
            # run everything in-process rather than failing the batch.
            for group, members in chunks:
                if any(responses[p] is None for p, _ in members):
                    self._demote_chunk(
                        group, members, deadline, responses, planner_stats,
                        batch_reg,
                    )

    def _demote_chunk(self, group, members, deadline, responses,
                      planner_stats, batch_reg=None):
        if batch_reg is not None:
            batch_reg.counter(
                "repro_service_chunk_demotions_total",
                "Chunks demoted to in-process execution after a worker "
                "or pickling failure.",
            ).inc()
        planner = self._fresh_planner(group)
        snapshot = self._fresh_snapshot()
        for position, response in _run_chunk_collected(
            batch_reg, members, planner, deadline, snapshot
        ):
            responses[position] = response
        self._store_memo(group.key, planner.export_memos(self.MEMO_EXPORT_MAX))
        self._merge_planner_stats(planner_stats, planner.stats.as_dict())
        if snapshot is not None and self.cache is not None:
            self.cache.merge_external(snapshot.stats)

    # ------------------------------------------------------------------

    def _stitch_trace(
        self, responses: Sequence[RewriteResponse]
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
