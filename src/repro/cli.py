"""Command-line interface: ``python -m repro COMMAND``.

Commands:

``rewrite``
    Load a schema script (CREATE TABLE / CREATE VIEW), rewrite a query to
    use the materialized views, print ranked rewritings.
``explain``
    Diagnose per-condition why each view is or is not usable; with
    ``--trace``, also print where the rewrite search spends its time.
``batch``
    Rewrite many queries from a JSON-lines file through the concurrent
    batch service; one JSON response per line on stdout.
``check``
    Empirically compare two queries for multiset-equivalence on random
    databases.
``query``
    Execute a query over CSV data files, optionally through the cheapest
    view-based rewriting.
``emit``
    Print a query — or the whole conformance corpus — as SQL text in a
    chosen dialect (``--dialect sqlite|duckdb|postgres|ansi``).
``rewrite-sql``
    Federation middleware, one-shot: take SQL text, rewrite it against a
    schema script or a live SQLite database file, print dialect-correct
    SQL (optionally ``--execute`` and ``--verify`` on the live file).
``serve-sql``
    The same middleware as a JSON-lines loop on stdin/stdout. Lines are
    read with the daemon's own parser; every answer, and every per-line
    error, is one ``repro-api/1`` envelope line, never fatal. With
    ``--metrics-interval`` the loop also emits periodic in-band
    ``repro-metrics/1`` frames. See ``docs/dialects.md``.
``serve``
    The always-on rewriting daemon: ``repro-api/1`` JSONL over TCP
    and/or a Unix socket, with admission control, per-tenant quotas and
    a memo tier that keeps planner memos across requests, in one
    process. Talk to it with ``repro.api.connect()``. See
    ``docs/serving.md``.
``metrics``
    Run one rewrite search with metrics enabled and print the registry
    as Prometheus text exposition. See ``docs/observability.md``.
``fuzz``
    Property-based fuzzing of rewrite soundness against independent
    live backends (``--backend sqlite|duckdb|all``); mismatches are
    shrunk to replayable JSON repros (``repro fuzz --replay <file>``).
    See ``docs/oracle.md``.

Schema scripts are ';'-separated statements. Every ``--json`` output is
the consolidated ``repro-api/1`` envelope — top-level ``schema`` /
``kind`` / ``ok`` and exactly one of ``result`` or ``error`` (see
``docs/api.md``).
``rewrite``, ``batch``, ``serve-sql``, ``serve`` and ``fuzz`` accept
``--metrics-out FILE`` to write a scrape-ready Prometheus snapshot of
everything the command did on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, Optional, Sequence

from . import api
from .blocks.normalize import parse_query
from .blocks.to_sql import block_to_sql, view_to_sql
from .catalog.load import load_schema
from .core.rewriter import RewriteEngine
from .dialects import DIALECT_NAMES
from .equivalence import check_equivalent
from .errors import ReproError
from .obs.metrics import (
    MetricsRegistry,
    collecting,
    current_metrics,
    emit_frame,
    histogram,
    set_global_metrics,
    timed,
)
from .service import MODES

QUERY_SECONDS = histogram(
    "repro_query_seconds", "Wall-clock time of `repro query` executions."
)


@contextlib.contextmanager
def _active_registry(fresh: bool = False) -> Iterator[MetricsRegistry]:
    """The active registry (``--metrics-out``'s); with none, or ``fresh``,
    a new process global, the previous one restored on exit."""
    registry = None if fresh else current_metrics()
    if registry is not None:
        yield registry
        return
    registry = MetricsRegistry()
    previous = set_global_metrics(registry)
    try:
        yield registry
    finally:
        set_global_metrics(previous)


def _budget_from(args):
    """A SearchBudget from the --deadline-ms / --max-* flags, or None."""
    from .serving.protocol import budget_from_wire

    return budget_from_wire(vars(args))


def _print_search_report(result) -> None:
    """The --trace / budget epilogue shared by rewrite and explain."""
    if result.exhausted:
        tripped = ",".join(result.budget.get("tripped", []))
        print(
            f"\n-- search budget exhausted ({tripped}): "
            "results are partial but sound"
        )
    if result.trace is not None:
        print("\n-- trace:")
        print(result.trace.format())


def _print_envelope(payload=None, *, indent=2, file=None, **envelope):
    """Print one ``repro-api/1`` envelope (:func:`api.to_envelope`'s
    keywords): indented for a ``--json`` document, on one line with
    ``indent=None`` for a JSON-lines stream."""
    envelope = api.to_envelope(payload, **envelope)
    print(json.dumps(envelope, indent=indent), file=file, flush=True)


def _load(args) -> tuple:
    """(catalog, the script's SELECTs) from --schema."""
    with open(args.schema) as handle:
        return load_schema(handle.read())


def _schema_and_query(args) -> tuple:
    """(catalog, query): --query parsed, else the schema script's last
    SELECT."""
    catalog, queries = _load(args)
    if args.query:
        return catalog, parse_query(args.query, catalog)
    if queries:
        return catalog, queries[-1]
    raise ReproError(
        "no query given: pass --query or end the schema script with a "
        "SELECT statement"
    )


def _pairs(entries, flag: str, shape: str) -> Iterator[tuple]:
    """(entry, name, value) per repeatable ``NAME=VALUE`` flag entry."""
    for entry in entries or ():
        name, sep, value = entry.partition("=")
        if not sep or not name.strip() or not value.strip():
            raise ReproError(f"{flag} {entry!r}: expected {shape}")
        yield entry, name.strip(), value.strip()


def cmd_rewrite(args) -> int:
    catalog, query = _schema_and_query(args)
    response = api.rewrite(
        query,
        catalog=catalog,
        budget=_budget_from(args),
        unfold=args.unfold,
        trace=args.trace,
        strategy=args.strategy,
    )
    if args.json:
        _print_envelope(response)
        return 0 if response.rewritings else 1
    print(f"-- query (estimated cost {response.original_cost:,.0f}):")
    print(block_to_sql(response.query))
    if not response.ranked:
        print("\n-- no usable view found")
        if args.explain:
            print()
            for diagnosis in api.explain(response.query, catalog).diagnoses:
                print(diagnosis.summary())
        _print_search_report(response)
        return 1
    shown = response.ranked if args.all else response.ranked[:1]
    for i, ranked in enumerate(shown, 1):
        print(
            f"\n-- rewriting {i} of {len(response.ranked)} "
            f"(estimated cost {ranked.cost:,.0f}, "
            f"uses {', '.join(ranked.rewriting.view_names)}):"
        )
        print(ranked.rewriting.sql())
    _print_search_report(response)
    return 0


def cmd_explain(args) -> int:
    catalog, query = _schema_and_query(args)
    response = api.explain(query, catalog, view=args.view or None)
    if args.json:
        _print_envelope(response)
        return 0
    for diagnosis in response.diagnoses:
        print(diagnosis.summary())
        print()
    if args.trace:
        # Where the time goes: run the full instrumented search once.
        result = api.rewrite(
            query, catalog=catalog, budget=_budget_from(args), trace=True
        )
        print(f"-- search: {len(result.ranked)} rewriting(s) found")
        _print_search_report(result)
    return 0


def cmd_batch(args) -> int:
    from .serving.protocol import parse_line, request_from_wire

    catalog, _queries = _load(args)
    requests = []
    with open(args.requests) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # The daemon's own line parser: a batch file replays against
            # `repro serve` verbatim, and both refuse the same lines.
            try:
                obj = parse_line(line, line_no)
                obj.setdefault("id", f"line-{line_no}")
                obj.setdefault("strategy", args.strategy)
                requests.append(request_from_wire(obj, catalog, line_no))
            except ReproError as error:
                raise ReproError(f"{args.requests}: {error}") from error
    if not requests:
        raise ReproError(f"{args.requests}: no requests found")
    result = api.rewrite_batch(
        requests,
        mode=args.mode,
        workers=args.workers,
        deadline=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None
            else None
        ),
    )
    # Responses as JSON lines on stdout (request order); the batch-level
    # report goes to stderr so stdout stays parseable line by line.
    for response in result:
        _print_envelope(response, indent=None)
    _print_envelope(
        {"batch": result.report}, kind="batch-report", indent=None,
        file=sys.stderr,
    )
    return 0 if result.error_count == 0 else 1


def cmd_check(args) -> int:
    catalog, _queries = _load(args)
    left = parse_query(args.left, catalog)
    right = parse_query(args.right, catalog)
    counterexample = check_equivalent(
        catalog, left, right, trials=args.trials, seed=args.seed
    )
    if counterexample is None:
        print(
            f"EQUIVALENT on {args.trials} random databases "
            f"(seed {args.seed})"
        )
        return 0
    print("NOT EQUIVALENT:")
    print(counterexample)
    return 1


def cmd_query(args) -> int:
    from .engine.io import load_database

    catalog, query = _schema_and_query(args)
    db = load_database(catalog, args.data)

    plan, extra, used = query, {}, "direct evaluation"
    if args.use_views:
        winner = RewriteEngine(catalog).rewrite(query).winner()
        if winner is not None:
            plan, extra = winner.query, winner.extra_views()
            names = dict.fromkeys(winner.view_names)
            used = "rewritten over " + ", ".join(names)
    with timed(QUERY_SECONDS) as timer:
        table = db.execute(plan, extra_views=extra, engine=args.engine)
    print(table.to_text(limit=args.limit))
    print(f"\n({len(table)} rows in {timer.seconds * 1000:.2f} ms, {used})")
    return 0


def cmd_emit(args) -> int:
    from .dialects import get_dialect
    from .dialects.conformance import emit_corpus

    dialect = get_dialect(args.dialect)
    if args.conformance:
        text = emit_corpus(dialect)
        if args.json:
            _print_envelope(
                {"dialect": dialect.name, "corpus": text}, kind="conformance"
            )
        else:
            print(text)
        return 0
    if not args.schema:
        raise ReproError(
            "nothing to emit: pass --schema (and --query) or --conformance"
        )
    catalog, query = _schema_and_query(args)
    views = [
        view_to_sql(view, dialect=dialect) + ";"
        for view in catalog.views.values()
    ]
    sql = block_to_sql(query, dialect=dialect)
    if args.json:
        payload = {"dialect": dialect.name, "sql": sql}
        if args.views:
            payload["views"] = views
        _print_envelope(payload, kind="emit")
        return 0
    if args.views:
        for statement in views:
            print(statement)
            print()
    print(sql + ";")
    return 0


def _federation_from(args):
    """(SqlRewriter-like, connection-or-None) from --schema / --db."""
    import sqlite3

    from .federation import FederationSession, SqlRewriter

    materialized = {
        name: sql
        for _entry, name, sql in _pairs(
            args.materialized, "--materialized", "NAME=SELECT ..."
        )
    }
    options = dict(
        dialect=args.dialect,
        budget=_budget_from(args),
        only_improving=not args.force_rewrite,
    )
    if args.db:
        connection = sqlite3.connect(args.db)
        session = FederationSession(
            connection, materialized=materialized, **options
        )
        return session, connection
    if not args.schema:
        raise ReproError("pass --schema SCRIPT or --db FILE")
    catalog, _queries = _load(args)
    if materialized:
        from .federation import parse_materialized_views

        parse_materialized_views(catalog, materialized)
    return SqlRewriter(catalog, **options), None


def cmd_rewrite_sql(args) -> int:
    middleware, connection = _federation_from(args)
    execute = args.execute or args.verify
    if execute and connection is None:
        raise ReproError("--execute/--verify require --db FILE")
    if execute:
        result = middleware.execute(args.sql, verify=args.verify)
        outcome = result.outcome
    else:
        result = outcome = middleware.rewrite_sql(args.sql)
    code = 1 if args.verify and result.verified is False else 0
    if args.json:
        _print_envelope(result)
        return code
    for statement in outcome.statements:
        print(statement + ";")
    if execute:
        for row in result.rows:
            print(tuple(row))
        if result.verified is not None:
            print(f"-- verified: {result.verified}")
    elif outcome.rewritten:
        print(
            f"-- rewritten over {', '.join(outcome.used_views)} "
            f"(cost {outcome.cost_original:,.0f} -> "
            f"{outcome.cost_rewritten:,.0f})"
        )
    else:
        print("-- passed through unchanged")
    return code


def cmd_serve_sql(args) -> int:
    import itertools
    import time

    from .serving.protocol import parse_line, sql_from_wire

    interval = args.metrics_interval
    started = last_frame = time.monotonic()
    frame_seq = itertools.count(1)

    # Periodic in-band metric frames need a live registry.
    scope = _active_registry() if interval > 0 else contextlib.nullcontext()
    with scope as registry:
        middleware, connection = _federation_from(args)
        for line_no, line in enumerate(sys.stdin, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # Bound per line: a line that does not parse has no id to echo.
            request_id = None
            try:
                obj = parse_line(line, line_no)
                request_id = obj.get("id")
                if obj["op"] != "rewrite":
                    raise ReproError(
                        f"line {line_no}: expected an object with 'sql'"
                    )
                sql = sql_from_wire(obj, line_no)
                verify = bool(obj.get("verify"))
                if not (obj.get("execute") or verify):
                    answer = middleware.rewrite_sql(sql)
                elif connection is None:
                    raise ReproError(
                        f"line {line_no}: execute/verify require --db FILE"
                    )
                else:
                    answer = middleware.execute(sql, verify=verify)
                _print_envelope(answer, indent=None, request_id=request_id)
            except Exception as error:  # noqa: BLE001 — never fatal
                _print_envelope(
                    error=error, kind="error", indent=None,
                    request_id=request_id,
                )
            if interval > 0 and time.monotonic() - last_frame >= interval:
                emit_frame(registry, next(frame_seq), started)
                last_frame = time.monotonic()
        if interval > 0:
            # A closing frame so short sessions still report totals.
            emit_frame(registry, next(frame_seq), started)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .engine.database import Database
    from .serving import RewriteDaemon

    catalog, _queries = _load(args)

    # The daemon always runs instrumented, so the in-band `metrics` op
    # and --metrics-interval frames have data.
    with _active_registry() as registry:
        daemon = RewriteDaemon(
            catalog,
            database=Database(catalog),
            queue_limit=args.queue_limit,
            tenant_quotas=dict(args.tenant or ()),
            memo_capacity=args.memo_capacity,
            metrics=registry,
            metrics_interval=args.metrics_interval,
        )

        async def run() -> None:
            await daemon.start(
                host=args.host, port=args.port, unix_path=args.socket
            )
            # The ready line on stdout: harnesses wait for it and read the
            # bound addresses (TCP port 0 picks a free one).
            ready = {
                "addresses": [list(a) for a in daemon.addresses],
                "queue_limit": daemon.admission.queue_limit,
            }
            _print_envelope(ready, kind="serve-ready", indent=None)
            await daemon.serve_forever()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            daemon.stop()
    return 0


def cmd_metrics(args) -> int:
    catalog, query = _schema_and_query(args)
    registry = MetricsRegistry()
    with collecting(registry):
        api.rewrite(query, catalog=catalog, budget=_budget_from(args))
    sys.stdout.write(registry.render_prometheus())
    return 0


def _fuzz_backends(args) -> Optional[tuple]:
    from .oracle import available_backends, backend_available

    if args.backend is None:
        return None
    if args.backend == "all":
        return tuple(available_backends())
    if args.backend == "duckdb":
        if not backend_available("duckdb"):
            raise ReproError(
                "oracle backend 'duckdb' requires the duckdb package "
                "(pip install duckdb)"
            )
        # N-way: the engine vs sqlite vs duckdb, never duckdb alone.
        return ("sqlite", "duckdb")
    return ("sqlite",)


def cmd_fuzz(args) -> int:
    import os
    from pathlib import Path

    from .fuzz import BUG_NAMES, FuzzRunner, inject_bug, replay

    # Checked here, not by argparse choices, so that building the parser
    # never imports the fuzz package; argparse's message and exit status.
    if args.inject_bug is not None and args.inject_bug not in BUG_NAMES:
        args.usage_error(
            f"argument --inject-bug: invalid choice: {args.inject_bug!r} "
            f"(choose from {', '.join(map(repr, BUG_NAMES))})"
        )
    backends = _fuzz_backends(args)
    # --inject-bug holds during --replay too, so a repro produced by a
    # mutation run can be re-examined under the same injected bug.
    bug = (
        inject_bug(args.inject_bug)
        if args.inject_bug
        else contextlib.nullcontext()
    )
    if args.replay:
        # When --engine is not given (None), replay() falls back to the
        # mode recorded in the repro document itself.
        with bug:
            report = replay(
                Path(args.replay),
                engine=args.engine,
                backends=backends,
                strategy=args.strategy,
            )
        print(report.describe())
        return 0 if report.ok else 1

    base_seed = args.seed
    if args.seed_from_env:
        # CI rotates the seed per run so the corpus keeps moving; any
        # failure is still reproducible from the persisted repro file.
        raw = (
            os.environ.get("FUZZ_SEED")
            or os.environ.get("GITHUB_RUN_ID")
            or "0"
        )
        base_seed = int(raw) % 1_000_000_007

    runner = FuzzRunner(
        out_dir=Path(args.out_dir),
        base_seed=base_seed,
        engine=args.engine or "auto",
        backends=backends or ("sqlite",),
        strategy=args.strategy or "c1c4",
    )

    def progress(stats, elapsed):
        print(
            f"  ... {stats.scenarios} scenarios, "
            f"{stats.rewritings} rewritings, "
            f"{stats.failures} failures ({elapsed:.0f}s)",
            file=sys.stderr,
        )

    with bug:
        stats = runner.run(
            budget_seconds=args.budget,
            max_scenarios=args.max_scenarios,
            max_failures=args.max_failures,
            progress=None if args.json else progress,
        )

    if args.json:
        payload = {"base_seed": base_seed, **stats.as_dict()}
        _print_envelope(payload, kind="fuzz-stats")
    else:
        print(
            f"fuzz: {stats.scenarios} scenarios "
            f"({stats.scenarios_per_sec:.0f}/s), {stats.checks} checks, "
            f"{stats.rewritings} rewritings, {stats.skipped} skipped, "
            f"{stats.failures} failures"
        )
        for path in stats.failure_files:
            print(f"  repro written: {path}")
    return 1 if stats.failures else 0


def non_negative_int(text: str) -> int:
    """argparse type: an integer that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def port_number(text: str) -> int:
    """argparse type: a TCP port, 0 (pick a free one) to 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in 0..65535, got {value}"
        )
    return value


def tenant_quota(text: str) -> tuple:
    """argparse type: ``NAME=MAX_INFLIGHT[:DEADLINE_MS]`` -> ``(name,
    TenantQuota)``; neither number may be negative."""
    from .serving import TenantQuota

    name, sep, spec = text.partition("=")
    inflight, _sep, deadline = spec.partition(":")
    try:
        if not sep or not name.strip():
            raise ValueError("expected NAME=MAX_INFLIGHT[:DEADLINE_MS]")
        cap = float(deadline) if deadline.strip() else None
        if cap is not None and not cap >= 0:  # NaN included
            raise ValueError(f"DEADLINE_MS must be >= 0, got {cap}")
        return name.strip(), TenantQuota(non_negative_int(inflight), cap)
    except (ValueError, argparse.ArgumentTypeError) as error:
        raise argparse.ArgumentTypeError(f"{text!r}: {error}") from error


SCHEMA_HELP = "SQL script with CREATE TABLE / CREATE VIEW statements"
STRATEGIES = ["c1c4", "cohen_nutt"]


def _flag_table() -> dict:
    """Every distinct option spec, once: key -> (option name,
    add_argument keywords). Built per parser."""
    def flag(name, help=None, **options):
        return name, dict(options, help=help)

    def switch(name, help):
        return flag(name, help, action="store_true")

    return {
        "schema": flag("--schema", SCHEMA_HELP, required=True),
        "schema-optional": flag("--schema", SCHEMA_HELP),
        "query": flag("--query", "the SELECT to rewrite"),
        "query-explain": flag("--query", "the SELECT to diagnose against"),
        "query-run": flag("--query", "the SELECT to run"),
        "query-emit": flag("--query", "the SELECT to emit"),
        "json": switch("--json", "emit the repro-api/1 JSON projection "
            "instead of text"),
        "json-fuzz": switch("--json", "emit the stats report as a "
            "repro-api/1 envelope (kind fuzz-stats)"),
        "metrics-out": flag("--metrics-out", "collect metrics while the "
            "command runs and write a Prometheus text snapshot to FILE on "
            "exit", metavar="FILE"),
        "strategy": flag("--strategy", "planner strategy: the C1-C4 "
            "usability conditions (default), or add Cohen-Nutt "
            "complete-rewriting extras (cohen_nutt)",
            choices=STRATEGIES, default="c1c4"),
        "trace": switch("--trace", "print per-stage timings and search "
            "counters"),
        "deadline-ms": flag("--deadline-ms", "wall-clock budget for the "
            "rewrite search (milliseconds)", type=float),
        "max-mappings": flag("--max-mappings", "cap on column mappings "
            "enumerated by the search", type=int),
        "max-candidates": flag("--max-candidates", "cap on candidate "
            "rewritings generated by the search", type=int),
        "all": switch("--all", "print every rewriting found"),
        "explain": switch("--explain", "on failure, print per-view "
            "condition diagnoses"),
        "unfold": switch("--unfold", "first unfold conjunctive views in the "
            "query's FROM clause"),
        "view": flag("--view", "restrict to one view name"),
        "requests": flag("requests", "JSON-lines file; each line an object "
            "with 'query' plus optional id, deadline_ms, max_mappings, "
            "max_candidates, max_steps, unfold (see docs/api.md)"),
        "mode": flag("--mode", "execution backend (default: auto by batch "
            "size)", choices=MODES, default="auto"),
        "workers-batch": flag("--workers", "worker count for thread/process "
            "modes (default: CPU count)", type=non_negative_int),
        "deadline-ms-batch": flag("--deadline-ms", "wall-clock budget for "
            "the WHOLE batch (milliseconds); overflow requests degrade "
            "gracefully", type=float),
        "left": flag("--left", required=True),
        "right": flag("--right", required=True),
        "trials": flag("--trials", type=positive_int, default=50),
        "seed-check": flag("--seed", type=int, default=0),
        "data": flag("--data", "directory of <table>.csv", required=True),
        "use-views": switch("--use-views", "evaluate through the cheapest "
            "view rewriting when one wins"),
        "limit": flag("--limit", type=non_negative_int, default=20),
        "engine-query": flag("--engine", "execution engine (default: auto — "
            "columnar for large inputs)", default="auto",
            choices=["row", "columnar", "auto"]),
        "dialect": flag("--dialect", "target SQL dialect: one of "
            + ", ".join(DIALECT_NAMES) + " (default: sqlite)",
            default="sqlite", metavar="NAME"),
        "views": switch("--views", "also emit every catalog view as CREATE "
            "VIEW"),
        "conformance": switch("--conformance", "emit the built-in "
            "conformance corpus instead of a query"),
        "db": flag("--db", "SQLite database file to ingest the catalog from "
            "(and to execute on)"),
        "materialized": flag("--materialized", "declare a table as "
            "materializing the given SELECT (repeatable); it becomes a "
            "rewriting candidate", action="append", metavar="NAME=SQL"),
        "force-rewrite": switch("--force-rewrite", "use the best rewriting "
            "even when its estimated cost does not beat direct evaluation"),
        "sql": flag("--sql", "the SELECT to rewrite", required=True),
        "execute": switch("--execute", "execute the (rewritten) statement "
            "on --db and print rows"),
        "verify": switch("--verify", "also run the original query on --db "
            "and demand multiset-equality (exit 1 on disagreement)"),
        "metrics-interval-sql": flag("--metrics-interval", "emit an in-band "
            "repro-metrics/1 JSON frame at least this often, plus one at "
            "end of input; 0 disables (default)", type=float, default=0.0,
            metavar="SECONDS"),
        "host": flag("--host", "TCP bind address (default: 127.0.0.1 unless "
            "--socket only)"),
        "port": flag("--port", "TCP port; 0 picks a free one, reported on "
            "the serve-ready line (default: 0)", type=port_number,
            default=0),
        "socket": flag("--socket", "also (or only) listen on a Unix-domain "
            "socket at PATH", metavar="PATH"),
        "queue-limit": flag("--queue-limit", "daemon-wide bound on "
            "admitted-but-unfinished requests; overload refuses in-band, "
            "never drops connections (default: 64)", type=non_negative_int,
            default=64),
        "tenant": flag("--tenant", "per-tenant quota: in-flight cap and "
            "optional search deadline ceiling (repeatable)", action="append",
            type=tenant_quota, metavar="NAME=MAX_INFLIGHT[:DEADLINE_MS]"),
        "memo-capacity": flag("--memo-capacity", "memo tier capacity "
            "(default: 4 MiB)", type=non_negative_int,
            default=4 * 1024 * 1024, metavar="BYTES"),
        "metrics-interval-serve": flag("--metrics-interval", "emit a "
            "repro-metrics/1 frame on stdout this often; 0 disables "
            "(default)", type=float, default=0.0, metavar="SECONDS"),
        "backend": flag("--backend", "live oracle backends: 'duckdb' means "
            "the N-way engine=sqlite=duckdb oracle; 'all' uses every "
            "installed driver. Default: sqlite for fuzzing, the recorded "
            "set for --replay", choices=["sqlite", "duckdb", "all"]),
        "budget-fuzz": flag("--budget", "wall-clock budget in seconds "
            "(default: 60)", type=float, default=60.0),
        "max-scenarios": flag("--max-scenarios", "stop after this many "
            "scenarios (default: budget-bound only)", type=int),
        "max-failures": flag("--max-failures", "stop after this many "
            "distinct failures (default: 5)", type=int, default=5),
        "seed-fuzz": flag("--seed", "base seed (default: 0)", type=int,
            default=0),
        "seed-from-env": switch("--seed-from-env", "derive the base seed "
            "from $FUZZ_SEED or $GITHUB_RUN_ID"),
        "out-dir": flag("--out-dir", "directory for shrunk repro files "
            "(default: fuzz-failures)", default="fuzz-failures"),
        "replay": flag("--replay", "re-run one persisted repro-fuzz/1 JSON "
            "file and exit", metavar="FILE"),
        "inject-bug": flag("--inject-bug", "mutation-test the oracle: patch "
            "a known evaluator bug in and require the fuzzer to catch it",
            metavar="BUG"),
        "engine-fuzz": flag("--engine", "execution engine per scenario; "
            "'both' cross-checks row vs columnar on every evaluation "
            "(three-way oracle with SQLite). Default: auto for fuzzing, the "
            "recorded mode for --replay",
            choices=["row", "columnar", "both", "auto"]),
        "strategy-fuzz": flag("--strategy", "planner strategy the oracle "
            "searches with; 'cohen_nutt' runs the cross-planner differential "
            "mode (oracle soundness plus C1-C4 <= Cohen-Nutt dominance per "
            "scenario). Default: c1c4 for fuzzing, the recorded strategy "
            "for --replay", choices=STRATEGIES),
    }


BUDGET = "deadline-ms max-mappings max-candidates"
FEDERATION = f"dialect schema-optional db materialized force-rewrite {BUDGET}"

#: Command name -> (handler, help line, flag-table keys in --help order).
COMMANDS = {
    "rewrite": (cmd_rewrite, "rewrite a query to use views",
        f"schema query strategy all explain unfold json trace {BUDGET} "
        "metrics-out"),
    "explain": (cmd_explain, "diagnose view usability",
        f"schema query-explain view json trace {BUDGET}"),
    "batch": (cmd_batch,
        "rewrite many queries (JSON-lines file) through the service",
        "schema requests mode workers-batch deadline-ms-batch strategy "
        "metrics-out"),
    "check": (cmd_check, "empirical equivalence check",
        "schema left right trials seed-check"),
    "query": (cmd_query, "run a query over CSV data",
        "schema data query-run use-views limit engine-query"),
    "emit": (cmd_emit,
        "print a query (or the conformance corpus) in a dialect",
        "dialect schema-optional query-emit views conformance json"),
    "rewrite-sql": (cmd_rewrite_sql,
        "rewrite one SQL statement through the federation middleware",
        f"{FEDERATION} sql execute verify json"),
    "serve-sql": (cmd_serve_sql,
        "federation middleware as a JSON-lines loop on stdin/stdout",
        f"{FEDERATION} metrics-interval-sql metrics-out"),
    "serve": (cmd_serve, "always-on rewriting daemon over TCP / Unix sockets "
        "(repro-api/1 JSONL)", "schema host port socket "
        "queue-limit tenant memo-capacity metrics-interval-serve metrics-out"),
    "metrics": (cmd_metrics,
        "run one rewrite with metrics on and print Prometheus text",
        f"schema query {BUDGET}"),
    "fuzz": (cmd_fuzz,
        "fuzz rewrite soundness against live backend cross-oracles",
        "backend budget-fuzz max-scenarios max-failures seed-fuzz "
        "seed-from-env out-dir replay inject-bug engine-fuzz strategy-fuzz "
        "json-fuzz metrics-out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Answer SQL queries with aggregation using materialized views "
            "(Dar, Jagadish, Levy, Srivastava, 1996)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _flag_table()
    for name, (func, help_line, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key in keys.split():
            flag_name, options = flags[key]
            p.add_argument(flag_name, **options)
        p.set_defaults(func=func, usage_error=p.error)
    return parser


def _with_metrics_out(args) -> int:
    """Run the command under a fresh global registry and persist it.

    The Prometheus snapshot is written even when the command fails, so
    a crashed fuzz sweep still leaves its counters behind.
    """
    with _active_registry(fresh=True) as registry:
        try:
            return args.func(args)
        finally:
            with open(args.metrics_out, "w") as handle:
                handle.write(registry.render_prometheus())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "metrics_out", None):
            return _with_metrics_out(args)
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
