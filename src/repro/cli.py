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
``advise``
    Recommend summary views for a workload under a storage budget.
``query``
    Execute a query over CSV data files, optionally through the cheapest
    view-based rewriting.
``fuzz``
    Property-based fuzzing of rewrite soundness against independent
    live backends (``--backend sqlite|duckdb|all``); mismatches are
    shrunk to replayable JSON repros (``repro fuzz --replay <file>``).
    See ``docs/oracle.md``.
``emit``
    Print a query — or the whole conformance corpus — as SQL text in a
    chosen dialect (``--dialect sqlite|duckdb|postgres|ansi``).
``rewrite-sql``
    Federation middleware, one-shot: take SQL text, rewrite it against a
    schema script or a live SQLite database file, print dialect-correct
    SQL (optionally ``--execute`` and ``--verify`` on the live file).
``serve-sql``
    The same middleware as a JSON-lines loop on stdin/stdout; per-line
    errors are reported in-band, never fatal. With
    ``--metrics-interval`` the loop also emits periodic in-band
    ``repro-metrics/1`` frames. See ``docs/dialects.md``.
``serve``
    The always-on rewriting daemon: ``repro-api/1`` JSONL over TCP
    and/or a Unix socket, with admission control, per-tenant quotas and
    a cross-worker shared memo tier. Talk to it with
    ``repro.api.connect()``. See ``docs/serving.md``.
``metrics``
    Run one rewrite search with metrics enabled and print the registry
    as Prometheus text exposition. See ``docs/observability.md``.

Schema scripts are ';'-separated statements; a workload file is a script
whose SELECT statements form the workload. Every ``--json`` output is
the consolidated ``repro-api/1`` envelope — top-level ``schema`` /
``kind`` / ``ok`` and exactly one of ``result`` or ``error`` (see
``docs/api.md``).
``rewrite``, ``batch``, ``fuzz`` and ``serve-sql`` accept
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
from .equivalence import check_equivalent
from .errors import ReproError
from .obs import SearchBudget
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
from .service.requests import API_SCHEMA

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


def _budget_from(args) -> Optional[SearchBudget]:
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


def _load(args) -> tuple:
    with open(args.schema) as handle:
        script = handle.read()
    return load_schema(script)


def _query_from(args, catalog, queries):
    if args.query:
        return parse_query(args.query, catalog)
    if queries:
        return queries[-1]
    raise ReproError(
        "no query given: pass --query or end the schema script with a "
        "SELECT statement"
    )


def cmd_rewrite(args) -> int:
    catalog, queries = _load(args)
    query = _query_from(args, catalog, queries)
    response = api.rewrite(
        query,
        catalog=catalog,
        budget=_budget_from(args),
        unfold=args.unfold,
        trace=args.trace,
        strategy=args.strategy,
    )
    if args.json:
        print(json.dumps(api.to_envelope(response), indent=2))
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
    catalog, queries = _load(args)
    query = _query_from(args, catalog, queries)
    response = api.explain(query, catalog, view=args.view or None)
    if args.json:
        print(json.dumps(api.to_envelope(response), indent=2))
        return 0
    for diagnosis in response.diagnoses:
        print(diagnosis.summary())
        print()
    if args.trace:
        # Where the time goes: run the full instrumented search once.
        result = api.rewrite(
            query, catalog=catalog, budget=_budget_from(args), trace=True
        )
        print(
            f"-- search: {len(result.ranked)} rewriting(s) found"
        )
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
        print(json.dumps(api.to_envelope(response)))
    print(
        json.dumps(
            api.to_envelope(
                {"batch": result.report}, kind="batch-report"
            )
        ),
        file=sys.stderr,
    )
    return 0 if result.error_count == 0 else 1


def cmd_check(args) -> int:
    catalog, queries = _load(args)
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


def cmd_advise(args) -> int:
    from .advisor import recommend_views

    catalog, queries = _load(args)
    if args.workload:
        with open(args.workload) as handle:
            _catalog, workload = load_schema(handle.read(), catalog)
    else:
        workload = queries
    if not workload:
        raise ReproError("the workload has no SELECT statements")
    recommendation = recommend_views(
        catalog, workload, space_budget_rows=args.budget
    )
    print(recommendation.summary())
    for report in recommendation.per_query:
        line = f"  {report.speedup:10,.1f}x"
        line += f"  via {report.view_used}" if report.view_used else "  (direct)"
        print(line)
    print()
    for view in recommendation.views:
        print(view_to_sql(view) + ";")
        print()
    return 0


def cmd_query(args) -> int:
    from .blocks.nested import parse_nested_query
    from .engine.io import load_database

    catalog, queries = _load(args)
    if args.query:
        nested = parse_nested_query(args.query, catalog)
    elif queries:
        from .blocks.nested import NestedQuery

        nested = NestedQuery(block=queries[-1])
    else:
        raise ReproError(
            "no query given: pass --query or end the schema script with a "
            "SELECT statement"
        )
    db = load_database(catalog, args.data)

    plan = nested.block
    extra = dict(nested.local_map())
    used = "direct evaluation"
    if args.use_views:
        engine = RewriteEngine(catalog)
        result = engine.rewrite_nested(nested)
        plan, extra = result.best_plan()
        if result.used_views:
            used = "rewritten over " + ", ".join(result.used_views)
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
            print(
                json.dumps(
                    api.to_envelope(
                        {"dialect": dialect.name, "corpus": text},
                        kind="conformance",
                    ),
                    indent=2,
                )
            )
        else:
            print(text)
        return 0
    if not args.schema:
        raise ReproError(
            "nothing to emit: pass --schema (and --query) or --conformance"
        )
    catalog, queries = _load(args)
    query = _query_from(args, catalog, queries)
    views = [
        view_to_sql(view, dialect=dialect) + ";"
        for view in catalog.views.values()
    ]
    sql = block_to_sql(query, dialect=dialect)
    if args.json:
        payload = {"dialect": dialect.name, "sql": sql}
        if args.views:
            payload["views"] = views
        print(json.dumps(api.to_envelope(payload, kind="emit"), indent=2))
        return 0
    if args.views:
        for statement in views:
            print(statement)
            print()
    print(sql + ";")
    return 0


def _materialized_from(args) -> dict:
    """--materialized NAME=SELECT... (repeatable) -> {name: sql}."""
    materialized = {}
    for entry in args.materialized or ():
        name, sep, sql = entry.partition("=")
        if not sep or not name.strip() or not sql.strip():
            raise ReproError(
                f"--materialized {entry!r}: expected NAME=SELECT ..."
            )
        materialized[name.strip()] = sql.strip()
    return materialized


def _federation_from(args):
    """(SqlRewriter-like, connection-or-None) from --schema / --db."""
    import sqlite3

    from .federation import FederationSession, SqlRewriter

    materialized = _materialized_from(args)
    if args.db:
        connection = sqlite3.connect(args.db)
        session = FederationSession(
            connection,
            dialect=args.dialect,
            materialized=materialized,
            budget=_budget_from(args),
            only_improving=not args.force_rewrite,
        )
        return session, connection
    if not args.schema:
        raise ReproError("pass --schema SCRIPT or --db FILE")
    catalog, _queries = _load(args)
    if materialized:
        from .federation import parse_materialized_views

        parse_materialized_views(catalog, materialized)
    rewriter = SqlRewriter(
        catalog,
        dialect=args.dialect,
        budget=_budget_from(args),
        only_improving=not args.force_rewrite,
    )
    return rewriter, None


def cmd_rewrite_sql(args) -> int:
    middleware, connection = _federation_from(args)
    if (args.execute or args.verify) and connection is None:
        raise ReproError("--execute/--verify require --db FILE")
    if args.execute or args.verify:
        result = middleware.execute(args.sql, verify=args.verify)
        if args.json:
            print(json.dumps(api.to_envelope(result), indent=2))
        else:
            outcome = result.outcome
            for statement in outcome.statements:
                print(statement + ";")
            for row in result.rows:
                print(tuple(row))
            if result.verified is not None:
                print(f"-- verified: {result.verified}")
        if args.verify and result.verified is False:
            return 1
        return 0
    outcome = middleware.rewrite_sql(args.sql)
    if args.json:
        print(json.dumps(api.to_envelope(outcome), indent=2))
    else:
        for statement in outcome.statements:
            print(statement + ";")
        if outcome.rewritten:
            print(
                f"-- rewritten over {', '.join(outcome.used_views)} "
                f"(cost {outcome.cost_original:,.0f} -> "
                f"{outcome.cost_rewritten:,.0f})"
            )
        else:
            print("-- passed through unchanged")
    return 0


def cmd_serve_sql(args) -> int:
    import itertools
    import time

    interval = getattr(args, "metrics_interval", 0.0) or 0.0

    started = time.monotonic()
    last_frame = started
    frame_seq = itertools.count(1)

    # Periodic in-band metric frames need a live registry.
    scope = _active_registry() if interval > 0 else contextlib.nullcontext()
    with scope as registry:
        middleware, connection = _federation_from(args)
        for line_no, line in enumerate(sys.stdin, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # Bound per line: a line that is not JSON has no id to echo.
            obj = None
            try:
                obj = json.loads(line)
                if isinstance(obj, str):
                    obj = {"sql": obj}
                if not isinstance(obj, dict) or "sql" not in obj:
                    raise ReproError(
                        f"line {line_no}: expected an object with 'sql'"
                    )
                execute = bool(obj.get("execute")) or bool(obj.get("verify"))
                if execute and connection is None:
                    raise ReproError(
                        f"line {line_no}: execute/verify require --db FILE"
                    )
                if execute:
                    result = middleware.execute(
                        obj["sql"], verify=bool(obj.get("verify"))
                    )
                    doc = result.to_json_dict()
                else:
                    doc = middleware.rewrite_sql(obj["sql"]).to_json_dict()
            except (ReproError, json.JSONDecodeError) as error:
                doc = {"schema": API_SCHEMA, "kind": "error",
                       "error": str(error)}
            if isinstance(obj, dict) and "id" in obj:
                doc["id"] = obj["id"]
            print(json.dumps(doc), flush=True)
            if interval > 0 and time.monotonic() - last_frame >= interval:
                emit_frame(registry, next(frame_seq), started)
                last_frame = time.monotonic()
        if interval > 0:
            # A closing frame so short sessions still report totals.
            emit_frame(registry, next(frame_seq), started)
    return 0


def _tenant_quotas_from(args) -> dict:
    """--tenant NAME=MAX_INFLIGHT[:DEADLINE_MS] (repeatable) -> quotas."""
    from .serving import TenantQuota

    quotas = {}
    for entry in args.tenant or ():
        name, sep, spec = entry.partition("=")
        if not sep or not name.strip() or not spec.strip():
            raise ReproError(
                f"--tenant {entry!r}: expected NAME=MAX_INFLIGHT"
                "[:DEADLINE_MS]"
            )
        inflight, _sep, deadline = spec.partition(":")
        try:
            quotas[name.strip()] = TenantQuota(
                max_inflight=int(inflight),
                deadline_ms_cap=float(deadline) if deadline else None,
            )
        except ValueError as error:
            raise ReproError(f"--tenant {entry!r}: {error}") from error
    return quotas


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
            workers=args.workers,
            queue_limit=args.queue_limit,
            tenant_quotas=_tenant_quotas_from(args),
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
            print(
                json.dumps(
                    api.to_envelope(
                        {
                            "addresses": [list(a) for a in daemon.addresses],
                            "workers": daemon.workers,
                            "queue_limit": daemon.admission.queue_limit,
                            "shared_memo": daemon.memo.name is not None,
                        },
                        kind="serve-ready",
                    )
                ),
                flush=True,
            )
            await daemon.serve_forever()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            daemon.stop()
    return 0


def cmd_metrics(args) -> int:
    catalog, queries = _load(args)
    query = _query_from(args, catalog, queries)
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

    from .fuzz import FuzzRunner, inject_bug, replay

    backends = _fuzz_backends(args)
    if args.replay:
        # Honour --inject-bug during replay too, so a repro produced by a
        # mutation run can be re-examined under the same injected bug.
        # When --engine is not given (None), replay() falls back to the
        # mode recorded in the repro document itself.
        if args.inject_bug:
            with inject_bug(args.inject_bug):
                report = replay(
                    Path(args.replay),
                    engine=args.engine,
                    backends=backends,
                    strategy=args.strategy,
                )
        else:
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

    def run():
        return runner.run(
            budget_seconds=args.budget,
            max_scenarios=args.max_scenarios,
            max_failures=args.max_failures,
            progress=None if args.json else progress,
        )

    if args.inject_bug:
        with inject_bug(args.inject_bug):
            stats = run()
    else:
        stats = run()

    if args.json:
        payload = {"base_seed": base_seed}
        payload.update(stats.as_dict())
        print(
            json.dumps(
                api.to_envelope(payload, kind="fuzz-stats"), indent=2
            )
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Answer SQL queries with aggregation using materialized views "
            "(Dar, Jagadish, Levy, Srivastava, 1996)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--schema",
            required=True,
            help="SQL script with CREATE TABLE / CREATE VIEW statements",
        )

    def metrics_flag(p):
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="collect metrics while the command runs and write a "
            "Prometheus text snapshot to FILE on exit",
        )

    def strategy_flag(p):
        p.add_argument(
            "--strategy",
            choices=["c1c4", "cohen_nutt", "both"],
            default="c1c4",
            help="planner strategy: the C1-C4 usability conditions "
            "(default), or add Cohen-Nutt complete-rewriting extras "
            "(cohen_nutt/both)",
        )

    def search_knobs(p):
        p.add_argument(
            "--trace",
            action="store_true",
            help="print per-stage timings and search counters",
        )
        p.add_argument(
            "--deadline-ms",
            type=float,
            help="wall-clock budget for the rewrite search (milliseconds)",
        )
        p.add_argument(
            "--max-mappings",
            type=int,
            help="cap on column mappings enumerated by the search",
        )
        p.add_argument(
            "--max-candidates",
            type=int,
            help="cap on candidate rewritings generated by the search",
        )

    p = sub.add_parser("rewrite", help="rewrite a query to use views")
    common(p)
    p.add_argument("--query", help="the SELECT to rewrite")
    strategy_flag(p)
    p.add_argument(
        "--all", action="store_true", help="print every rewriting found"
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="on failure, print per-view condition diagnoses",
    )
    p.add_argument(
        "--unfold",
        action="store_true",
        help="first unfold conjunctive views in the query's FROM clause",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-api/1 JSON projection instead of text",
    )
    search_knobs(p)
    metrics_flag(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("explain", help="diagnose view usability")
    common(p)
    p.add_argument("--query", help="the SELECT to diagnose against")
    p.add_argument("--view", help="restrict to one view name")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-api/1 JSON projection instead of text",
    )
    search_knobs(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "batch",
        help="rewrite many queries (JSON-lines file) through the service",
    )
    common(p)
    p.add_argument(
        "requests",
        help=(
            "JSON-lines file; each line an object with 'query' plus "
            "optional id, deadline_ms, max_mappings, max_candidates, "
            "max_steps, unfold (see docs/api.md)"
        ),
    )
    p.add_argument(
        "--mode",
        choices=MODES,
        default="auto",
        help="execution backend (default: auto by batch size)",
    )
    p.add_argument(
        "--workers",
        type=int,
        help="worker count for thread/process modes (default: CPU count)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        help="wall-clock budget for the WHOLE batch (milliseconds); "
        "overflow requests degrade gracefully",
    )
    strategy_flag(p)
    metrics_flag(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("check", help="empirical equivalence check")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("advise", help="recommend views for a workload")
    common(p)
    p.add_argument(
        "--workload",
        help="SQL script of SELECTs (defaults to SELECTs in --schema)",
    )
    p.add_argument("--budget", type=float, default=float("inf"))
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("query", help="run a query over CSV data")
    common(p)
    p.add_argument("--data", required=True, help="directory of <table>.csv")
    p.add_argument("--query", help="the SELECT to run")
    p.add_argument(
        "--use-views",
        action="store_true",
        help="evaluate through the cheapest view rewriting when one wins",
    )
    p.add_argument("--limit", type=int, default=20)
    p.add_argument(
        "--engine",
        choices=["row", "columnar", "auto"],
        default="auto",
        help="execution engine (default: auto — columnar for large inputs)",
    )
    p.set_defaults(func=cmd_query)

    from .dialects import DIALECT_NAMES

    def dialect_flag(p, default="sqlite"):
        p.add_argument(
            "--dialect",
            default=default,
            metavar="NAME",
            help=(
                "target SQL dialect: one of "
                + ", ".join(DIALECT_NAMES)
                + f" (default: {default})"
            ),
        )

    p = sub.add_parser(
        "emit",
        help="print a query (or the conformance corpus) in a dialect",
    )
    dialect_flag(p)
    p.add_argument(
        "--schema",
        help="SQL script with CREATE TABLE / CREATE VIEW statements",
    )
    p.add_argument("--query", help="the SELECT to emit")
    p.add_argument(
        "--views",
        action="store_true",
        help="also emit every catalog view as CREATE VIEW",
    )
    p.add_argument(
        "--conformance",
        action="store_true",
        help="emit the built-in conformance corpus instead of a query",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-api/1 JSON projection instead of text",
    )
    p.set_defaults(func=cmd_emit)

    def federation_flags(p):
        dialect_flag(p)
        p.add_argument(
            "--schema",
            help="SQL script with CREATE TABLE / CREATE VIEW statements",
        )
        p.add_argument(
            "--db",
            help="SQLite database file to ingest the catalog from "
            "(and to execute on)",
        )
        p.add_argument(
            "--materialized",
            action="append",
            metavar="NAME=SQL",
            help="declare a table as materializing the given SELECT "
            "(repeatable); it becomes a rewriting candidate",
        )
        p.add_argument(
            "--force-rewrite",
            action="store_true",
            help="use the best rewriting even when its estimated cost "
            "does not beat direct evaluation",
        )
        search_knobs(p)

    p = sub.add_parser(
        "rewrite-sql",
        help="rewrite one SQL statement through the federation middleware",
    )
    federation_flags(p)
    p.add_argument("--sql", required=True, help="the SELECT to rewrite")
    p.add_argument(
        "--execute",
        action="store_true",
        help="execute the (rewritten) statement on --db and print rows",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="also run the original query on --db and demand "
        "multiset-equality (exit 1 on disagreement)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-api/1 JSON projection instead of text",
    )
    p.set_defaults(func=cmd_rewrite_sql)

    p = sub.add_parser(
        "serve-sql",
        help="federation middleware as a JSON-lines loop on stdin/stdout",
    )
    federation_flags(p)
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="emit an in-band repro-metrics/1 JSON frame at least this "
        "often, plus one at end of input; 0 disables (default)",
    )
    metrics_flag(p)
    p.set_defaults(func=cmd_serve_sql)

    p = sub.add_parser(
        "serve",
        help="always-on rewriting daemon over TCP / Unix sockets "
        "(repro-api/1 JSONL)",
    )
    common(p)
    p.add_argument(
        "--host",
        default=None,
        help="TCP bind address (default: 127.0.0.1 unless --socket only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks a free one, reported on the serve-ready "
        "line (default: 0)",
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="also (or only) listen on a Unix-domain socket at PATH",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process workers sharing the memo tier; 0 = serial "
        "in-process execution (default: 0)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="daemon-wide bound on admitted-but-unfinished requests; "
        "overload refuses in-band, never drops connections "
        "(default: 64)",
    )
    p.add_argument(
        "--tenant",
        action="append",
        metavar="NAME=MAX_INFLIGHT[:DEADLINE_MS]",
        help="per-tenant quota: in-flight cap and optional search "
        "deadline ceiling (repeatable)",
    )
    p.add_argument(
        "--memo-capacity",
        type=int,
        default=4 * 1024 * 1024,
        metavar="BYTES",
        help="shared memo segment capacity (default: 4 MiB)",
    )
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="emit a repro-metrics/1 frame on stdout this often; "
        "0 disables (default)",
    )
    metrics_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "metrics",
        help="run one rewrite with metrics on and print Prometheus text",
    )
    common(p)
    p.add_argument("--query", help="the SELECT to rewrite")
    search_knobs(p)
    p.set_defaults(func=cmd_metrics)

    from .fuzz import BUG_NAMES

    p = sub.add_parser(
        "fuzz",
        help="fuzz rewrite soundness against live backend cross-oracles",
    )
    p.add_argument(
        "--backend",
        choices=["sqlite", "duckdb", "all"],
        default=None,
        help="live oracle backends: 'duckdb' means the N-way "
        "engine=sqlite=duckdb oracle; 'all' uses every installed "
        "driver. Default: sqlite for fuzzing, the recorded set for "
        "--replay",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=60.0,
        help="wall-clock budget in seconds (default: 60)",
    )
    p.add_argument(
        "--max-scenarios",
        type=int,
        help="stop after this many scenarios (default: budget-bound only)",
    )
    p.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many distinct failures (default: 5)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="base seed (default: 0)"
    )
    p.add_argument(
        "--seed-from-env",
        action="store_true",
        help="derive the base seed from $FUZZ_SEED or $GITHUB_RUN_ID",
    )
    p.add_argument(
        "--out-dir",
        default="fuzz-failures",
        help="directory for shrunk repro files (default: fuzz-failures)",
    )
    p.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run one persisted repro-fuzz/1 JSON file and exit",
    )
    p.add_argument(
        "--inject-bug",
        choices=BUG_NAMES,
        help="mutation-test the oracle: patch a known evaluator bug in "
        "and require the fuzzer to catch it",
    )
    p.add_argument(
        "--engine",
        choices=["row", "columnar", "both", "auto"],
        default=None,
        help="execution engine per scenario; 'both' cross-checks row vs "
        "columnar on every evaluation (three-way oracle with SQLite). "
        "Default: auto for fuzzing, the recorded mode for --replay",
    )
    p.add_argument(
        "--strategy",
        choices=["c1c4", "cohen_nutt", "both"],
        default=None,
        help="planner strategy the oracle searches with; 'both' runs "
        "the cross-planner differential mode (oracle soundness plus "
        "C1-C4 <= Cohen-Nutt dominance per scenario). Default: c1c4 "
        "for fuzzing, the recorded strategy for --replay",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the stats report as a repro-api/1 envelope "
        "(kind fuzz-stats)",
    )
    metrics_flag(p)
    p.set_defaults(func=cmd_fuzz)
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
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
