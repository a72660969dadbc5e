"""The always-on asyncio rewriting daemon.

A stdlib-``asyncio`` JSONL-over-socket server (TCP and/or Unix-domain)
speaking the versioned ``repro-api/1`` envelope. One daemon serves one
catalog. One synchronous core, :meth:`RewriteDaemon.handle`, answers
every op on the calling thread, with no event loop; a rewrite::

    line -> parse -> admission -> stored response, unchanged? -> its line
                               -> executor: PlannerCache.run
                                  -> publish memo export (if any) -> line

The server only reads lines (numbered as ``repro batch`` numbers them),
awaits the executor for a rewrite miss or an update, and writes the
line the core returns. So an unchanged stored response is answered on
the event loop, never queued behind another search. A line over
:data:`MAX_LINE_BYTES` is answered in-band and skipped.

Admission happens synchronously on the event loop when a line arrives,
so overload never buffers unboundedly: past the queue limit (or a
tenant's quota) the client gets an immediate in-band *refused* response
— the same degraded shape as the batch service's ``batch_deadline``
path, trip-labelled ``queue_full`` / ``tenant_quota``. Connections are
never dropped on overload.

One process serves: one worker thread runs the searches strictly
serially (the planner-sharing determinism baseline) while the event
loop keeps accepting, refusing and answering pings. Planners and the
memo tier, a :class:`~repro.serving.memo.LocalMemoTier`, live in this
process; a memo export comes back with a response only when the
planner gained an entry, and is published into the tier.

The ``update`` op mutates base tables through :mod:`repro.maintenance`.
A registered delta listener — not the op handler — performs the cache
invalidation, so *any* maintenance activity against the daemon's
database (including direct ``apply_change`` calls in embedding code)
bumps the memo tier's epoch and evicts the affected fingerprints.
Affected views also get their catalog cardinality refreshed from the
maintained materialization (counted, not built), so post-update
responses re-rank with live statistics — without a restart and without
cold-starting unaffected fingerprints.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

from ..api import to_envelope
from ..catalog.schema import Catalog
from ..engine.database import Database
from ..errors import UnsupportedSQLError
from ..maintenance import MaintainedView, apply_change, register_delta_listener
from ..obs.metrics import (
    MetricsRegistry,
    collecting,
    counter,
    emit_frame,
    histogram,
)
from ..service.degradation import refused_response
from .admission import DEFAULT_TENANT, AdmissionController, TenantQuota
from .memo import DEFAULT_CAPACITY, LocalMemoTier
from .protocol import (
    ProtocolError,
    encoded_line,
    parse_line,
    request_from_wire,
    strategy_names,
    update_from_wire,
)
from .worker import PlannerCache


REQUESTS = counter(
    "repro_serving_requests_total",
    "Daemon rewrite requests, by tenant and outcome.",
    ("tenant", "outcome"),
)
REQUEST_SECONDS = histogram(
    "repro_serving_request_seconds",
    "Daemon rewrite latency, by tenant.",
    ("tenant",),
)
MEMO_PUBLISHES = counter(
    "repro_serving_shared_memo_publishes_total",
    "Served responses by whether their memo export was "
    "published into the memo tier or skipped "
    "(planner unchanged since its last export).",
    ("outcome",),
)


#: The longest request line either server reads, newline excluded; a
#: 3000-row ``update`` is about 100 KB. A longer line is answered
#: in-band and skipped.
MAX_LINE_BYTES = 8 * 1024 * 1024


#: Bytes a connection reads at a time. asyncio's 256 KiB buffer is past
#: glibc's mmap threshold: two minor page faults a request; 64 KiB, none.
READ_BYTES = 64 * 1024

_UNLOCKED = contextlib.nullcontext()


async def _next_line(reader) -> Optional[str]:
    """The next physical line, stripped (``None``: one over the limit,
    skipped); ``IncompleteReadError`` at the end of the stream."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise
        line = error.partial  # an unterminated last line
    except asyncio.LimitOverrunError:
        while True:
            try:
                await reader.readuntil(b"\n")
                return None
            except asyncio.LimitOverrunError as error:
                await reader.readexactly(error.consumed)
    return line.decode("utf-8", "replace").strip()


async def _write(writer, line: bytes) -> None:
    """Write one response line: one ``write`` call, so lines never
    interleave. A client that left is not an error."""
    writer.write(line)
    try:
        await writer.drain()
    except (ConnectionResetError, OSError):
        pass


class RewriteDaemon:
    """One catalog, one memo tier, many concurrent clients."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        database: Optional[Database] = None,
        queue_limit: int = 64,
        default_quota: Optional[TenantQuota] = None,
        tenant_quotas: Optional[dict[str, TenantQuota]] = None,
        memo_capacity: int = DEFAULT_CAPACITY,
        memo_tier=None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_interval: float = 0.0,
    ):
        self.catalog = catalog
        self.database = database or Database(catalog)
        self.admission = AdmissionController(
            queue_limit=queue_limit,
            default_quota=default_quota,
            tenant_quotas=tenant_quotas,
        )
        self.metrics = metrics
        self.metrics_interval = metrics_interval
        # An explicit tier wins (tested against None: an empty tier is
        # falsy).
        self.memo = (
            memo_tier
            if memo_tier is not None
            else LocalMemoTier(capacity=memo_capacity)
        )
        self._planner_cache = PlannerCache(self.memo)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        #: view name -> maintainer, built lazily on the first update of a
        #: table the view reads. Unmaintainable views (DISTINCT, views
        #: over views) stay out and are handled by invalidation alone.
        self._maintainers: dict[str, MaintainedView] = {}
        self._update_lock = asyncio.Lock()
        self._unsubscribe = register_delta_listener(self._on_delta)
        self._servers: list[asyncio.base_events.Server] = []
        self._connections: set[asyncio.Task] = set()
        self._stopping: Optional[asyncio.Event] = None
        self._started = time.monotonic()
        self.addresses: list[tuple] = []

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(
        self,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        """Bind the requested sockets; TCP port 0 picks a free port."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        if host is None and unix_path is None:
            host = "127.0.0.1"
        if host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host, port, limit=MAX_LINE_BYTES
            )
            self._servers.append(server)
            for sock in server.sockets:
                self.addresses.append(("tcp",) + sock.getsockname()[:2])
        if unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, unix_path, limit=MAX_LINE_BYTES
            )
            self._servers.append(server)
            self.addresses.append(("unix", unix_path))

    @property
    def tcp_port(self) -> Optional[int]:
        for kind, *rest in self.addresses:
            if kind == "tcp":
                return rest[1]
        return None

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or an in-band shutdown op)."""
        assert self._stopping is not None, "call start() first"
        frames = None
        if self.metrics_interval > 0 and self.metrics is not None:
            frames = asyncio.ensure_future(self._emit_frames())
        try:
            await self._stopping.wait()
        finally:
            if frames is not None:
                frames.cancel()
            await self._shutdown()

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread."""
        if self._stopping is None:
            return
        loop = getattr(self, "_loop", None)
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stopping.set)
        else:
            self._stopping.set()

    async def _shutdown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        self.close()

    def close(self) -> None:
        """Release the delta listener and the executor. Serving calls it
        on the way out; a daemon that never started must call it
        itself. The memo tier is process memory and holds nothing to
        release."""
        self._unsubscribe()
        self._pool.shutdown(wait=True, cancel_futures=True)

    async def _emit_frames(self) -> None:
        """Periodic ``repro-metrics/1`` frames on stdout (serve-sql's
        in-band frame shape, one JSON object per line)."""
        for seq in itertools.count(1):
            await asyncio.sleep(self.metrics_interval)
            emit_frame(self.metrics, seq, self._started)

    # ------------------------------------------------------------------
    # Connection handling: read, hand off, write

    async def _handle_connection(self, reader, writer) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
            me.add_done_callback(self._connections.discard)
        tasks: set[asyncio.Task] = set()
        writer.transport.max_size = READ_BYTES
        try:
            for line_no in itertools.count(1):
                line = await _next_line(reader)
                if line is not None and line[:1] in ("", "#"):
                    continue  # numbered, as repro batch numbers it
                steps = self._respond(line, line_no)
                try:
                    pool, call = self._step(steps)
                except StopIteration as answered:
                    await _write(writer, answered.value)
                    continue
                task = asyncio.ensure_future(
                    self._hand_off(steps, pool, call, writer)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # shutdown, the client still connected
        ):
            pass
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _hand_off(self, steps, pool, call, writer) -> None:
        """Await the executor for one line, then write its reply. ``pool``
        ``None`` is an update: one at a time, on the default executor."""
        try:
            async with self._update_lock if pool is None else _UNLOCKED:
                done = asyncio.get_running_loop().run_in_executor(pool, call)
                with contextlib.suppress(Exception):  # raised in the core
                    await done
            self._step(steps, done.result)
        except StopIteration as answered:
            await _write(writer, answered.value)
        finally:
            steps.close()

    # ------------------------------------------------------------------
    # The synchronous core

    def handle(self, line: Optional[str], line_no: int = 0) -> bytes:
        """The response line to request line ``line_no`` (``None``: one
        over :data:`MAX_LINE_BYTES`), on the calling thread; only a
        rewrite miss runs on the executor. A daemon that never started
        answers as a serving one does; :meth:`close` it after."""
        steps = self._respond(line, line_no)
        try:
            pool, call = self._step(steps)
            self._step(
                steps, call if pool is None else pool.submit(call).result
            )
        except StopIteration as answered:
            return answered.value
        raise RuntimeError("a request line has at most one hand-off")

    def _step(self, steps, outcome=None):
        """Advance :meth:`_respond`'s generator ``steps`` by one step on
        this thread, recording into the daemon's registry (when it has
        one): the hand-off it yields, or ``StopIteration`` with the
        response line."""
        with collecting(self.metrics):
            return steps.send(outcome)

    def _search(self, request):
        """:meth:`PlannerCache.run` on the worker thread, recording into
        the daemon's registry (when it has one)."""
        with collecting(self.metrics):
            return self._planner_cache.run(request)

    def _respond(self, line: Optional[str], line_no: int):
        """One request line, as a generator shared by :meth:`handle` and
        the server. It yields at most one hand-off ``(pool, call)``: run
        ``call`` on ``pool`` (``None``: an update) and send back a callable
        returning or raising its outcome. It returns the response line."""
        request_id = None
        try:
            if line is None:
                raise ProtocolError(
                    f"line {line_no}: request line longer than "
                    f"{MAX_LINE_BYTES} bytes"
                )
            obj = parse_line(line, line_no)
            request_id, op = obj.get("id"), obj["op"]
            if op == "rewrite":
                reply = yield from self._rewrite(obj, line_no)
            elif op == "update":
                ran = yield None, functools.partial(
                    self.apply_update,
                    *update_from_wire(obj, self.catalog, line_no),
                )
                reply = ran()
            elif op == "ping":
                reply = {
                    "pong": True,
                    "epoch": self.memo.epoch(),
                    "queue_depth": self.admission.depth,
                    "strategies": list(strategy_names()),
                }
            elif op == "metrics":
                reply = {
                    "metrics": self.metrics.snapshot().as_dict()
                    if self.metrics is not None
                    else None
                }
            else:  # shutdown: the server writes this line, then stops
                self.stop()
                reply = {"stopping": True}
            if not isinstance(reply, bytes):
                reply = to_envelope(reply, kind=op, request_id=request_id)
        except Exception as error:  # noqa: BLE001 — a response line must
            # always come back; an unanswered request hangs the client.
            reply = to_envelope(
                kind="error", error=error, request_id=request_id
            )
        if not isinstance(reply, bytes):
            reply = (json.dumps(reply) + "\n").encode("utf-8")
        return reply

    def _rewrite(self, obj: dict, line_no: int):
        """The ``rewrite`` op: its line, after at most one hand-off."""
        request = request_from_wire(obj, self.catalog, line_no)
        tenant = str(obj.get("tenant") or DEFAULT_TENANT)
        reason = self.admission.admit(tenant)
        if reason is not None:
            self._count_request(tenant, "refused")
            return encoded_line(
                refused_response(request, reason), obj.get("id")
            )
        started = time.perf_counter()
        try:
            cap = self.admission.budget_cap(tenant)
            if cap is not None:
                budget = request.budget
                budget = cap if budget is None else budget.merged_with(cap)
                request = replace(request, budget=budget)
            response = self._planner_cache.stored_response(request)
            export = None
            if response is None:
                ran = yield self._pool, functools.partial(
                    self._search, request
                )
                response, key, view_names, export, _path = ran()
                if export:
                    # An empty export means the planner learned nothing.
                    self.memo.publish(key, view_names, export)
            outcome = "error" if response.error is not None else (
                "exhausted" if response.exhausted else "ok"
            )
            self._count_request(
                tenant, outcome, time.perf_counter() - started,
                publish="published" if export else "skipped",
            )
            return encoded_line(response, obj.get("id"))
        finally:
            self.admission.release(tenant)

    def _count_request(
        self, tenant: str, outcome: str, seconds: Optional[float] = None,
        publish: Optional[str] = None,
    ) -> None:
        """Record one request into the active registry."""
        REQUESTS.labels(tenant, outcome).inc()
        if seconds is not None:
            REQUEST_SECONDS.labels(tenant).observe(seconds)
        if publish is not None:
            MEMO_PUBLISHES.labels(publish).inc()

    def apply_update(self, table: str, inserts=(), deletes=()) -> dict:
        """One base-table change: maintain views, refresh stats. Rows may
        come as any iterables; each is read once.

        Invalidation itself happens in the delta listener, so it also
        covers maintenance driven from outside this method. Records into
        the daemon's registry when it has one.
        """
        inserts, deletes = list(inserts), list(deletes)
        epoch_before = self.memo.epoch()
        with collecting(self.metrics):
            maintainers = self._maintainers_reading(table)
            apply_change(
                list(maintainers.values()),
                table,
                inserts,
                deletes,
                database=self.database,
            )
            unmaintained = [
                name
                for name, view in self.catalog.views.items()
                if name not in maintainers
                and any(rel.name == table for rel in view.block.from_)
            ]
            if unmaintained:
                # No maintainer to observe the delta -> no listener fired;
                # still stale, so invalidate them here.
                self.memo.invalidate_views(unmaintained)
        return {
            "table": table,
            "inserted": len(inserts),
            "deleted": len(deletes),
            "maintained_views": sorted(maintainers),
            "invalidated_views": sorted(
                set(maintainers) | set(unmaintained)
            ),
            "epoch": self.memo.epoch(),
            "epoch_before": epoch_before,
        }

    def _maintainers_reading(self, table: str) -> dict[str, MaintainedView]:
        out = {}
        for name, view in self.catalog.views.items():
            if not any(rel.name == table for rel in view.block.from_):
                continue
            maintainer = self._maintainers.get(name)
            if maintainer is None:
                try:
                    maintainer = MaintainedView(view, self.database)
                except UnsupportedSQLError:
                    continue
                self._maintainers[name] = maintainer
            out[name] = maintainer
        return out

    def _on_delta(self, event) -> None:
        """The maintenance hook: refresh stats, evict, bump the epoch."""
        if not event.relevant:
            return
        if event.maintainer.db is not self.database:
            return  # someone else's warehouse
        name = event.view_name
        if name in self.catalog.views:
            self.catalog.set_row_count(name, event.maintainer.row_count())
        self.memo.invalidate_views([name])
