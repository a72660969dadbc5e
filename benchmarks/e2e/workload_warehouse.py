"""``warehouse-exec``: Example 1.1 executed, on SQLite and on our engine.

The end of the pipe and the paper's claim ("orders of magnitude" from
answering Q out of V1) measured on a backend that is not ours. The
window is a sequence of rounds (15 at full size), each running four
phases back to back:

(a) statements through ``FederationSession.execute(sql)`` — rewrite to
    V1, emit SQLite SQL, execute (middleware overhead dominates);
(b) ``execute(sql, rewrite=False)`` — the direct scan on SQLite;
(c) ``Database.execute(Q)`` — the direct scan on our engine;
(d) ``RewriteEngine.answer(sql, db)`` — rewrite + execute on our engine.
"""

from __future__ import annotations

import gc
import sqlite3
import time

from repro import RewriteEngine, RewriteRequest, block_to_sql, parse_query
from repro.federation import FederationSession
from repro.obs import MetricsRegistry, collecting
from repro.oracle import rows_multiset_equal
from repro.workloads import telephony

import inputs
import layers
import oracle
from common import SETUP_REPEATS, Config, WorkloadResult, harness_peak_rss_mb
from stats import (
    COARSE,
    Measured,
    SpanLog,
    add_trace_children,
    best_of,
    family_total,
    median_of,
    p50_p99,
    percentile,
    ratio,
    split,
)

now = time.perf_counter

#: ``Calls`` rows. The issue asked for 1,000,000 (~10 s of set-up); with
#: set-up repeated three times per run inside the driver's time limit
#: the warehouse is 250,000 rows (--quick: a tenth).
CALLS_ROWS = 250_000
#: Nominal statements/s of phases (a) and (d) times their share of the
#: requested seconds, statements per segment and the most segments;
#: phases (b) and (c) run one direct scan each per round.
RATE_A = 1100.0 * 0.45
RATE_D = 1000.0 * 0.30
PER_SEGMENT_A = 146
MAX_SEGMENTS = 45
#: Scans per executor in the traced run's engine probe.
DIRECT_RUNS = 3
#: Rows of the slice the row-at-a-time executor scans in a traced run.
ROW_ENGINE_SLICE = 100_000


class _Warehouse:
    """Generated data loaded into in-memory SQLite and into our engine."""

    def __init__(self, cfg: Config, n_calls: int, n_a: int, n_d: int):
        started = now()
        self.workload = telephony.generate(n_calls=n_calls, seed=cfg.seed)
        self.connection = sqlite3.connect(":memory:")
        try:
            for name, schema in self.workload.catalog.tables.items():
                columns = ", ".join(schema.columns)
                marks = ", ".join("?" for _ in schema.columns)
                self.connection.execute(f"CREATE TABLE {name} ({columns})")
                self.connection.executemany(
                    f"INSERT INTO {name} VALUES ({marks})",
                    self.workload.tables[name],
                )
            self.connection.execute(
                "CREATE TABLE V1 AS " + inputs.V1_SELECT_NAMED
            )
            ingest_started = now()
            self.session = FederationSession(
                self.connection,
                materialized={"V1": inputs.V1_SELECT},
                row_counts=True,
            )
            self.ingest_seconds = now() - ingest_started
            self.database = self.workload.database()
            materialize_started = now()
            self.database.materialize("V1")
            self.materialize_seconds = now() - materialize_started
            self.engine = RewriteEngine(self.workload.catalog)
            self.statements_a = inputs.warehouse_statements(
                cfg.seed, n_a + cfg.warmup(n_a), n_calls
            )
            self.statements_d = inputs.warehouse_statements(
                cfg.seed + 1, n_d + cfg.warmup(n_d), n_calls
            )
            for sql in self.statements_a[n_a:]:
                self.session.execute(sql)
            for sql in self.statements_d[n_d:]:
                self.engine.answer(sql, self.database)
            del self.statements_a[n_a:], self.statements_d[n_d:]
        except BaseException:
            self.connection.close()
            raise
        self.seconds = now() - started

    def close(self) -> None:
        self.connection.close()


def _timed(call, *args, **kwargs):
    start = now()
    out = call(*args, **kwargs)
    return out, now() - start


def run(cfg: Config) -> WorkloadResult:
    result = WorkloadResult(cfg.workload)
    n_calls = CALLS_ROWS // 10 if cfg.quick else CALLS_ROWS
    n_a, segments = cfg.plan(RATE_A, PER_SEGMENT_A, MAX_SEGMENTS)
    n_d = max(2, round(n_a * RATE_D / RATE_A / segments)) * segments
    setup_seconds = []
    warehouse = None
    for _ in range(1 if cfg.traced else SETUP_REPEATS[cfg.workload]):
        if warehouse is not None:
            warehouse.close()
        warehouse = _Warehouse(cfg, n_calls, n_a, n_d)
        setup_seconds.append(warehouse.seconds)
    result.metrics["setup_s"] = median_of(setup_seconds)
    # The loaded rows are the harness's input; keep them out of the
    # garbage collector's way inside the timed window.
    gc.collect()
    gc.freeze()
    try:
        _measure(cfg, warehouse, n_calls, segments, result)
    finally:
        warehouse.close()
    result.metrics["peak_rss_mb"] = Measured(harness_peak_rss_mb())
    return result


def _measure(cfg, warehouse, n_calls, segments, result) -> None:
    session, database, engine = (
        warehouse.session, warehouse.database, warehouse.engine,
    )
    query_sql = warehouse.statements_a[0]
    query_block = parse_query(query_sql, warehouse.workload.catalog)
    deadline = cfg.hard_deadline()
    rounds = 15 if segments % 15 == 0 else COARSE
    per_round = segments // rounds
    throughput, p50, p99, answer = [], [], [], []
    direct, scans = [], []
    rewritten = executed = attempted = failed = 0
    for part_a, part_d in zip(
        split(warehouse.statements_a, rounds),
        split(warehouse.statements_d, rounds),
    ):
        round_latencies = []
        for segment in split(part_a, per_round):
            latencies = []
            start = now()
            for sql in segment:
                outcome, seconds = _timed(session.execute, sql)
                latencies.append(seconds)
                rewritten += outcome.outcome.rewritten
                failed += outcome.outcome.exhausted
            throughput.append(ratio(len(segment), now() - start))
            executed += len(segment)
            p50.append(percentile(latencies, 50) * 1e3)
            round_latencies += latencies
        p99.append(percentile(round_latencies, 99) * 1e3)
        direct.append(_timed(session.execute, query_sql, rewrite=False)[1])
        scans.append(_timed(database.execute, query_block, engine="auto")[1])
        for segment in split(part_d, per_round):
            answers = [
                _timed(engine.answer, sql, database)[1] for sql in segment
            ]
            answer.append(percentile(answers, 50) * 1e3)
        attempted += len(part_a) + len(part_d) + 2
        if now() > deadline:
            result.truncated = True
            break
    m = result.metrics
    m.update(
        {
            "throughput_rps": best_of(throughput, "higher"),
            "latency_p50_ms": best_of(p50),
            "latency_p99_ms": best_of(p99),
            "answered_share": Measured(ratio(rewritten, executed)),
            "engine.direct_p50_ms": best_of(s * 1e3 for s in scans),
            "engine.answer_p50_ms": best_of(answer),
        }
    )
    m["federation.exec_speedup"] = Measured(
        ratio(min(direct) * 1e3, m["latency_p50_ms"].value)
    )
    result.counts.update(
        {
            "calls_rows": n_calls,
            "statements_a": len(warehouse.statements_a),
            "statements_d": len(warehouse.statements_d),
            "segments": segments,
            "rounds": rounds,
        }
    )
    # The gate: verify=True re-runs the original on SQLite and compares
    # multisets; our engine's direct and rewritten rows must equal
    # SQLite's too.
    problems = result.problems
    for sql in warehouse.statements_a[: oracle.WAREHOUSE_SAMPLES]:
        checked = session.execute(sql, verify=True)
        served = checked.rows
        if cfg.corrupt:
            served = session.connection.execute(
                oracle.corrupt_sql(checked.outcome.sql)
            ).fetchall()
        if not checked.verified or not rows_multiset_equal(
            served, checked.verify_rows
        ):
            problems.append(f"federation verify failed: {sql}")
        for label, table in (
            ("engine direct", database.execute(sql)),
            ("engine answer", engine.answer(sql, database)),
        ):
            if not rows_multiset_equal(table.rows, checked.verify_rows):
                problems.append(f"{label} differs from SQLite: {sql}")
    result.counts["oracle_sampled"] = oracle.WAREHOUSE_SAMPLES
    result.attempted = attempted
    result.failed = failed
    if cfg.traced:
        _layers(cfg, warehouse, n_calls, direct, result)


def _layers(cfg, warehouse, n_calls, direct, result) -> None:
    """The (a) path again, one public call per layer, with spans."""
    m = result.metrics
    session, database = warehouse.session, warehouse.database
    catalog = session.catalog
    rewriter = session.rewriter
    log = SpanLog()
    emitted_bytes = 0
    rewritten = 0
    for index, sql in enumerate(warehouse.statements_a):
        rid = f"w{index}"
        t0 = now()
        query = parse_query(sql, catalog)
        t1 = now()
        found = rewriter.engine.rewrite(query, trace=True)
        t2 = now()
        best = found.ranked[0] if found.ranked else None
        use = best is not None and best.cost < found.original_cost
        target = best.rewriting.query if use else query
        emitted = block_to_sql(target, dialect=session.dialect)
        t3 = now()
        cursor = session.connection.cursor()
        cursor.execute(emitted)
        cursor.fetchall()
        t4 = now()
        rewritten += use
        emitted_bytes += len(emitted)
        log.add(rid, "request", t0, t4, None)
        log.add(rid, "parse_query", t0, t1, "request")
        log.add(rid, "plan", t1, t2, "request")
        log.add(rid, "emit", t2, t3, "request")
        log.add(rid, "backend_exec", t3, t4, "request")
        add_trace_children(log, rid, "plan", t1, found.trace.root)
        _, seconds = _timed(rewriter.rewrite_sql, sql)
        log.add(rid, "rewrite_sql", t4, t4 + seconds, None)
    log.write(cfg.out_dir / f"spans-{cfg.workload}.jsonl")
    n = len(warehouse.statements_a)
    m.update(
        p50_p99(
            "federation.rewrite_sql_us", log.durations("rewrite_sql"), 1e6
        )
    )
    m.update(
        p50_p99(
            "federation.backend_exec_us", log.durations("backend_exec"), 1e6
        )
    )
    m.update(p50_p99("federation.direct_ms", direct, 1e3))
    m.update(layers.planner_timings(log))
    m["federation.rewritten_share"] = Measured(ratio(rewritten, n))
    m["federation.ingest_s"] = Measured(warehouse.ingest_seconds)
    m["engine.materialize_s"] = Measured(warehouse.materialize_seconds)

    # engine: both executors, with the engine's own row counters.
    query_block = parse_query(warehouse.statements_a[0], catalog)
    registry = MetricsRegistry()
    with collecting(registry):
        columnar = [
            _timed(database.execute, query_block, engine="columnar")[1]
            for _ in range(DIRECT_RUNS)
        ]
    snapshot = registry.snapshot().as_dict()
    scanned = family_total(snapshot, "repro_engine_rows_scanned_total")
    slice_db = telephony.generate(
        n_calls=min(ROW_ENGINE_SLICE, n_calls), seed=cfg.seed
    ).database()
    row = [
        _timed(slice_db.execute, query_block, engine="row")[1]
        for _ in range(DIRECT_RUNS)
    ]
    m.update(p50_p99("engine.columnar_direct_ms", columnar, 1e3))
    m.update(p50_p99("engine.row_direct_ms", row, 1e3))
    m["engine.rows_scanned"] = Measured(scanned / DIRECT_RUNS)
    m["engine.rows_per_s"] = Measured(ratio(scanned, sum(columnar)))
    m["engine.kernel_compilations"] = Measured(
        family_total(snapshot, "repro_engine_kernel_compilations_total")
    )

    # Stateless probes and the service layers, on the same statements.
    texts = warehouse.statements_a[: layers.PROBE_SAMPLES]
    m.update(layers.probe_rewrite_layers([(t, catalog) for t in texts]))
    m.update(
        layers.probe_service(
            [RewriteRequest(query=t, catalog=catalog) for t in texts]
        )
    )
    # dialects.emit_us comes from the (a) path itself here.
    m.update(p50_p99("dialects.emit_us", log.durations("emit"), 1e6))
    m["dialects.emitted_bytes"] = Measured(ratio(emitted_bytes, n))
    result.counts["spans"] = len(log.records)
