"""Rewriter-as-middleware: SQL text in, dialect-correct SQL text out.

:class:`SqlRewriter` is the pure (no-connection) middleware: it parses
incoming SQL against a catalog, runs the existing planner, and emits the
winning rewriting — auxiliary ``CREATE VIEW`` statements plus the final
``SELECT`` — in the target dialect. :class:`FederationSession` binds
that middleware to a live DB-API connection: it can ingest the catalog
from the database itself, execute the rewritten statements, and (in
verify mode) cross-check the rewritten answer against the original
query on the very same live database, multiset-exactly.

This is the deployment shape of views-as-queryable-tables middlewares
(Hasura et al.): the application keeps sending plain SQL over the
facts; the middleware transparently routes it through the summary
tables when the paper's conditions prove the detour sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from ..blocks.normalize import parse_query
from ..blocks.query_block import QueryBlock
from ..blocks.to_sql import block_to_sql, view_to_sql
from ..catalog.schema import Catalog
from ..core.planner import RewritePlanner
from ..dialects import DialectLike, get_dialect
from ..obs.budget import SearchBudget
from ..obs.metrics import counter
from ..oracle.values import rows_multiset_equal
from ..service.executor import execute_request
from ..service.requests import API_SCHEMA, RewriteRequest, RewriteResponse
from .catalog import IngestReport, ingest_catalog, parse_materialized_views

STATEMENTS = counter(
    "repro_federation_statements_total",
    "SQL statements through the middleware, by outcome.",
    ("rewritten",),
)
INGESTS = counter(
    "repro_federation_ingests_total",
    "Catalogs ingested from live connections.",
)
VERIFIES = counter(
    "repro_federation_verify_total",
    "Live verify runs, by outcome.",
    ("outcome",),
)


@dataclass(frozen=True)
class SqlRewriteOutcome:
    """The middleware's answer for one incoming SQL statement."""

    input_sql: str
    dialect: str
    #: The final SELECT, dialect-emitted (rewritten or pass-through).
    sql: str
    #: Everything to execute in order: auxiliary CREATE VIEW statements
    #: (empty unless the rewriting needs them), then the final SELECT.
    statements: tuple[str, ...]
    rewritten: bool
    used_views: tuple[str, ...] = ()
    #: Names of the auxiliary views ``statements`` creates (callers drop
    #: them after executing the SELECT).
    aux_view_names: tuple[str, ...] = ()
    cost_original: float = 0.0
    cost_rewritten: Optional[float] = None
    exhausted: bool = False

    def to_json_dict(self) -> dict:
        return {
            "schema": API_SCHEMA,
            "kind": "sql-rewrite",
            "dialect": self.dialect,
            "input": self.input_sql,
            "sql": self.sql,
            "statements": list(self.statements),
            "rewritten": self.rewritten,
            "used_views": list(self.used_views),
            "cost_original": self.cost_original,
            "cost_rewritten": self.cost_rewritten,
            "exhausted": self.exhausted,
        }


class SqlRewriter:
    """Parse → plan → emit middleware over one catalog and dialect.

    ``only_improving=True`` (the default) passes the original query
    through unless the best rewriting's estimated cost beats direct
    evaluation — a middleware must never make a query slower on purpose.
    With ``only_improving=False`` the best rewriting always wins when
    one exists (useful for conformance testing).

    Every statement runs through
    :func:`repro.service.executor.execute_request`, like every other
    front end, with one planner over the catalog's views (as they are at
    construction) that the rewriter builds once and keeps warm. A
    ``budget`` with count limits plans cold, by the executor's
    determinism rule.
    """

    def __init__(
        self,
        catalog: Catalog,
        dialect: DialectLike = "sqlite",
        budget: Optional[SearchBudget] = None,
        only_improving: bool = True,
    ):
        self.catalog = catalog
        self.dialect = get_dialect(dialect)
        self.budget = budget
        self.only_improving = only_improving
        self.views = tuple(catalog.views.values())
        self.planner = RewritePlanner(self.views, catalog, True)

    @property
    def engine(self) -> "SqlRewriter":
        """This rewriter: ``rewriter.engine.rewrite(query, trace=True)``
        keeps working for callers that searched through the engine."""
        return self

    def rewrite(
        self, query: Union[str, QueryBlock], trace: bool = False
    ) -> RewriteResponse:
        """One ranked search of ``query`` over the catalog's views."""
        request = RewriteRequest(
            query, self.catalog, views=self.views, budget=self.budget,
            trace=trace,
        )
        return execute_request(request, planner=self.planner)

    def rewrite_sql(
        self, sql: Union[str, QueryBlock]
    ) -> SqlRewriteOutcome:
        """Rewrite one SQL statement (or pre-parsed block)."""
        # Text is parsed (and validated) once, by the search itself.
        input_sql = block_to_sql(sql) if isinstance(sql, QueryBlock) else sql
        result = self.rewrite(sql)
        best = result.ranked[0] if result.ranked else None
        rewritten = best is not None and (
            not self.only_improving or best.cost < result.original_cost
        )
        STATEMENTS.labels("true" if rewritten else "false").inc()
        if rewritten:
            rewriting = best.rewriting
            aux = tuple(
                view_to_sql(v, dialect=self.dialect)
                for v in rewriting.aux_views
            )
            final = block_to_sql(rewriting.query, dialect=self.dialect)
            return SqlRewriteOutcome(
                input_sql=input_sql,
                dialect=self.dialect.name,
                sql=final,
                statements=aux + (final,),
                rewritten=True,
                used_views=tuple(rewriting.view_names),
                aux_view_names=tuple(v.name for v in rewriting.aux_views),
                cost_original=result.original_cost,
                cost_rewritten=best.cost,
                exhausted=result.exhausted,
            )
        passthrough = block_to_sql(result.query, dialect=self.dialect)
        return SqlRewriteOutcome(
            input_sql=input_sql,
            dialect=self.dialect.name,
            sql=passthrough,
            statements=(passthrough,),
            rewritten=False,
            cost_original=result.original_cost,
            exhausted=result.exhausted,
        )


@dataclass
class FederationResult:
    """One executed statement: the rows plus how they were obtained."""

    outcome: SqlRewriteOutcome
    rows: list = field(default_factory=list)
    #: None when verification was not requested; otherwise whether the
    #: rewritten rows multiset-matched the original query's rows on the
    #: same live database.
    verified: Optional[bool] = None
    verify_rows: Optional[list] = None

    def to_json_dict(self) -> dict:
        doc = self.outcome.to_json_dict()
        doc["rows"] = [list(row) for row in self.rows]
        if self.verified is not None:
            doc["verified"] = self.verified
        return doc


class FederationSession:
    """A live connection fronted by the rewriting middleware.

    The catalog defaults to whatever :func:`ingest_catalog` discovers on
    the connection; ``materialized`` declares summary tables and their
    defining SQL (see :mod:`repro.federation.catalog`).
    """

    def __init__(
        self,
        connection,
        dialect: DialectLike = "sqlite",
        catalog: Optional[Catalog] = None,
        materialized: Optional[Mapping[str, str]] = None,
        budget: Optional[SearchBudget] = None,
        only_improving: bool = True,
        row_counts: bool = False,
    ):
        self.connection = connection
        self.dialect = get_dialect(dialect)
        if catalog is None:
            catalog, self.report = ingest_catalog(
                connection,
                dialect=self.dialect,
                materialized=materialized,
                row_counts=row_counts,
            )
            INGESTS.inc()
        else:
            self.report = IngestReport(dialect=self.dialect.name)
            if materialized:
                parse_materialized_views(catalog, materialized)
        self.catalog = catalog
        self.rewriter = SqlRewriter(
            catalog,
            dialect=self.dialect,
            budget=budget,
            only_improving=only_improving,
        )

    # ------------------------------------------------------------------

    def rewrite_sql(self, sql: str) -> SqlRewriteOutcome:
        """Middleware only: no execution, just the emitted SQL."""
        return self.rewriter.rewrite_sql(sql)

    def execute(
        self, sql: str, rewrite: bool = True, verify: bool = False
    ) -> FederationResult:
        """Rewrite (optionally) and execute one statement on the live DB.

        ``verify=True`` additionally runs the *original* query on the
        same connection and checks multiset-equality against the
        rewritten rows — the end-to-end federation soundness check.
        """
        if rewrite:
            outcome = self.rewriter.rewrite_sql(sql)
        else:
            query = parse_query(sql, self.catalog)
            passthrough = block_to_sql(query, dialect=self.dialect)
            outcome = SqlRewriteOutcome(
                input_sql=sql,
                dialect=self.dialect.name,
                sql=passthrough,
                statements=(passthrough,),
                rewritten=False,
            )
        rows = self._run(outcome)
        result = FederationResult(outcome=outcome, rows=rows)
        if verify and outcome.rewritten:
            query = parse_query(sql, self.catalog)
            direct_sql = block_to_sql(query, dialect=self.dialect)
            cursor = self.connection.cursor()
            cursor.execute(direct_sql)
            direct = [tuple(row) for row in cursor.fetchall()]
            result.verify_rows = direct
            result.verified = rows_multiset_equal(rows, direct)
        elif verify:
            result.verified = True
        if verify:
            VERIFIES.labels(
                "passthrough"
                if not outcome.rewritten
                else "ok" if result.verified else "mismatch"
            ).inc()
        return result

    def _run(self, outcome: SqlRewriteOutcome) -> list:
        cursor = self.connection.cursor()
        try:
            for statement in outcome.statements[:-1]:
                cursor.execute(statement)
            cursor.execute(outcome.statements[-1])
            return [tuple(row) for row in cursor.fetchall()]
        finally:
            for name in reversed(outcome.aux_view_names):
                cursor.execute(
                    f"DROP VIEW IF EXISTS {self.dialect.quote_ident(name)}"
                )
