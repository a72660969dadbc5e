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
    parallelism for large CPU-bound batches. A search is cheap next to
    an executor round trip, so the unit of dispatch is a *bundle*: the
    batch's chunks are packed, in order and never split, into at most
    :data:`BUNDLES_PER_WORKER` bundles per worker of about equal request
    count, and each bundle is one future. Its payload (per chunk:
    catalog, views, requests, exported planner memo; per bundle: the
    deadline expiry) is pickled once; the worker runs the chunks one
    after another, each on a fresh warm-started planner, and ships back
    per-chunk results and planner memos (for the next batch's warm
    start) plus one metrics snapshot.

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
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Optional, Sequence, Union

from ..core.planner import RewritePlanner
from ..memo import Memo
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


def _execute_chunk(
    members,
    planner: Optional[RewritePlanner],
    deadline: Optional[BatchDeadline],
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
            REFUSALS.inc()
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
    with collecting(batch_reg):
        return _execute_chunk(*args)


def _process_bundle(bundle: dict) -> dict:
    """Top-level process-pool entry point (must be importable to pickle).

    Runs the bundle's chunks one after another: rebuilds each chunk's
    planner in the worker, warm-starts it from the shipped memo and runs
    the chunk. Returns per-chunk results, memo exports, import counts
    and planner stats, plus the bundle's metrics snapshot for the master
    to merge.
    """
    deadline = BatchDeadline.until(bundle["expires_at"])
    # Worker-local registry: the snapshot ships back for the master to
    # merge exactly once, mirroring the planner-memo discipline.
    registry = MetricsRegistry() if bundle["collect_metrics"] else None
    outcomes = []
    for chunk in bundle["chunks"]:
        planner = RewritePlanner(
            list(chunk["views"]),
            chunk["catalog"],
            chunk["use_set_semantics"],
        )
        imported = (
            planner.import_memos(chunk["memo"]) if chunk["memo"] else 0
        )
        results = _run_chunk_collected(
            registry, chunk["members"], planner, deadline
        )
        outcomes.append(
            {
                "results": results,
                "memo": planner.export_memos(bundle["memo_export_max"]),
                "memo_imported": imported,
                "planner_stats": planner.stats.as_dict(),
            }
        )
    return {
        "chunks": outcomes,
        "metrics": (
            registry.snapshot().as_dict() if registry is not None else None
        ),
    }


class BatchRewriteService:
    """A reusable batch front end over the rewrite search.

    One instance amortizes planner state across :meth:`submit` calls:
    serial batches keep live planners per view-set fingerprint;
    thread/process batches keep exported substitution memos and ship
    them to workers for warm start.
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
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if workers is not None and workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 or None: CPU count), got {workers}"
            )
        self.mode = mode
        self.workers = workers
        self.batch_deadline = batch_deadline
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

    def _fresh_planner(
        self, group: RequestGroup
    ) -> tuple[RewritePlanner, int]:
        """Thread mode and demoted chunks: a per-chunk planner warm-
        started from the memo store, and the entries it imported."""
        planner = RewritePlanner(
            list(group.views), group.catalog, group.use_set_semantics
        )
        memo = self._memo_store.get(group.key, None)
        imported = planner.import_memos(memo) if memo else 0
        return planner, imported

    def _store_memo(self, key: tuple, export: list) -> None:
        if export:
            self._memo_store.put(key, export)

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
        workers = self.workers or _available_cpus()
        mode = self._resolve_mode(len(requests), workers)
        batch_deadline = BatchDeadline(
            deadline if deadline is not None else self.batch_deadline
        )
        groups = group_requests(requests)
        chunks = chunk_groups(groups, workers)

        responses: list[Optional[RewriteResponse]] = [None] * len(requests)
        planner_stats: dict[str, int] = {}

        # Batch-scoped metrics: when an enclosing registry is active,
        # every chunk (serial, thread task, process worker, demoted
        # re-run) records into a batch-local aggregate which folds into
        # the parent exactly once below — the no-double-counting
        # contract for all three modes. With metrics off this is None
        # and the runners skip all registry work.
        parent_metrics = current_metrics()
        batch_reg = MetricsRegistry() if parent_metrics is not None else None

        # Memo entries that warm-started a planner of this batch; serial
        # mode keeps live planners and imports nothing.
        memo_imported = 0
        if mode == "serial":
            self._run_serial(
                chunks, batch_deadline, responses, planner_stats, batch_reg
            )
        elif mode == "thread":
            memo_imported = self._run_threaded(
                chunks, workers, batch_deadline, responses, planner_stats,
                batch_reg,
            )
        else:
            memo_imported = self._run_processes(
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
            batch_reg.family(BATCHES).labels(mode).inc()
            batch_reg.family(BATCH_SECONDS).observe(elapsed)
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
            for position, response in _run_chunk_collected(
                batch_reg, members, planner, deadline
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

    def _run_threaded(self, chunks, workers, deadline, responses,
                      planner_stats, batch_reg) -> int:
        def task(group, members):
            planner, imported = self._fresh_planner(group)
            # Entered inside the worker thread: ``collecting`` is
            # thread-local, so each task must scope its own extent. The
            # shared batch registry is thread-safe, so tasks record into
            # it directly — nothing to merge, nothing counted twice.
            results = _run_chunk_collected(
                batch_reg, members, planner, deadline
            )
            return group, results, planner, imported

        memo_imported = 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(task, group, members)
                for group, members in chunks
            ]
            for future in futures:
                group, results, planner, imported = future.result()
                memo_imported += imported
                for position, response in results:
                    responses[position] = response
                self._store_memo(
                    group.key, planner.export_memos(self.MEMO_EXPORT_MAX)
                )
                self._merge_planner_stats(
                    planner_stats, planner.stats.as_dict()
                )
        return memo_imported

    def _run_processes(self, chunks, workers, deadline, responses,
                       planner_stats, batch_reg) -> int:
        expires_at = deadline.wall_expiry()
        memo_imported = 0

        def demote(bundle):
            # Failure isolation stays per chunk, whatever was shipped.
            return sum(
                self._demote_chunk(
                    group, members, deadline, responses, planner_stats,
                    batch_reg,
                )
                for group, members in bundle
            )

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
                                "memo": self._memo_store.get(group.key, None),
                            }
                            for group, members in bundle
                        ],
                        "expires_at": expires_at,
                        "memo_export_max": self.MEMO_EXPORT_MAX,
                        "collect_metrics": batch_reg is not None,
                    }
                    try:
                        future = pool.submit(_process_bundle, payload)
                    except Exception:
                        # Dead or broken pool: run this bundle's chunks
                        # in-process.
                        memo_imported += demote(bundle)
                        continue
                    pending.append((future, bundle))
                for future, bundle in pending:
                    try:
                        outcome = future.result()
                    except Exception:
                        # Unpicklable payload or dead worker.
                        memo_imported += demote(bundle)
                        continue
                    for (group, _), done in zip(bundle, outcome["chunks"]):
                        memo_imported += done["memo_imported"]
                        for position, response in done["results"]:
                            responses[position] = response
                        self._store_memo(group.key, done["memo"])
                        self._merge_planner_stats(
                            planner_stats, done["planner_stats"]
                        )
                    if outcome["metrics"] and batch_reg is not None:
                        # One merge per worker snapshot: the worker's
                        # registry was born empty, so these counts exist
                        # nowhere else.
                        batch_reg.merge(outcome["metrics"])
        except Exception:
            # Pool construction itself failed (restricted platforms):
            # run everything in-process rather than failing the batch.
            memo_imported += demote(
                chunk
                for chunk in chunks
                if any(responses[p] is None for p, _ in chunk[1])
            )
        return memo_imported

    def _demote_chunk(self, group, members, deadline, responses,
                      planner_stats, batch_reg=None) -> int:
        if batch_reg is not None:
            batch_reg.family(CHUNK_DEMOTIONS).inc()
        planner, imported = self._fresh_planner(group)
        for position, response in _run_chunk_collected(
            batch_reg, members, planner, deadline
        ):
            responses[position] = response
        self._store_memo(group.key, planner.export_memos(self.MEMO_EXPORT_MAX))
        self._merge_planner_stats(planner_stats, planner.stats.as_dict())
        return imported

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
