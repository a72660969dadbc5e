"""Cross-backend multiset-equality checking of queries and rewritings.

For one scenario (query, views, database instance) the checker runs, on
the repro engine and on every configured live backend (SQLite always,
DuckDB when installed — see :mod:`repro.oracle.backends`):

1. every catalog view's materialization,
2. the query directly over the base tables,
3. every produced rewriting over the materialized views,

and demands multiset-equality (a) between the engine and each backend
for each of those, and (b) between each rewriting and the query *within*
each backend. Check (b) on a live backend is the fully independent
soundness oracle: it involves the repro engine nowhere.

With ``engine="both"`` every repro-engine evaluation additionally runs
on *both* the row and the columnar executors and their agreement is
enforced too. Together with multiple backends each scenario becomes an
N-way oracle (row engine = columnar engine = SQLite = DuckDB = ...).

One deliberate boundary: when the *base data* contains SQL NULLs, check
(b) is recorded as skipped rather than enforced. The paper's rewriting
theorems assume NULL-free base relations — a view's ``COUNT(B)`` output
is used as the group cardinality, which SQL's NULL-skipping COUNT
violates the moment B itself is NULL — so a (b)-disagreement there is a
property of the model, not a bug. Check (a) has no such excuse: the
engine claims SQL semantics, NULLs included, and is held to them.

Failures never raise — they are collected as :class:`Mismatch` records so
the fuzzer can shrink and persist them. Only a genuinely unsupported
backend feature raises :class:`~repro.errors.OracleUnsupported`, which
callers treat as skip-with-reason.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..blocks.query_block import QueryBlock
from ..core.multiview import all_rewritings
from ..core.result import Rewriting
from ..engine.database import Database
from ..errors import ReproError
from ..obs.budget import BudgetMeter, SearchBudget
from ..obs.metrics import counter
from .backends import BACKEND_NAMES, DBAPIBackend, create_backend
from .values import rows_multiset_equal


@dataclass
class Mismatch:
    """One disagreement between backends (or backends and themselves)."""

    context: str
    left_label: str
    right_label: str
    left_rows: list
    right_rows: list
    sql: str = ""
    note: str = ""

    def describe(self) -> str:
        lines = [f"MISMATCH [{self.context}] {self.left_label} vs {self.right_label}"]
        if self.note:
            lines.append(f"  note: {self.note}")
        if self.sql:
            lines.append("  sql: " + self.sql.replace("\n", " "))
        lines.append(f"  {self.left_label}: {sorted(map(str, self.left_rows))}")
        lines.append(f"  {self.right_label}: {sorted(map(str, self.right_rows))}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Outcome of one scenario cross-check."""

    mismatches: list[Mismatch] = field(default_factory=list)
    checks: int = 0
    rewritings: int = 0
    skipped: list[str] = field(default_factory=list)
    backends: tuple[str, ...] = ("sqlite",)
    #: Search-result sizes per planner strategy, filled when the checker
    #: ran its own search (``{"c1c4": 2, "cohen_nutt": 3}``) — the
    #: fuzzer's per-strategy found/missed tallies read from here.
    strategy_counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return (
                f"ok: {self.checks} checks, {self.rewritings} rewritings, "
                f"{len(self.skipped)} skipped "
                f"[backends: {', '.join(self.backends)}]"
            )
        return "\n".join(m.describe() for m in self.mismatches)


SCENARIOS = counter(
    "repro_oracle_scenarios_total",
    "Scenarios cross-checked against live backends.",
)
CHECKS = counter(
    "repro_oracle_checks_total",
    "Individual multiset-equality comparisons performed.",
)
VACATIONS = counter(
    "repro_oracle_vacations_total",
    "Scenarios whose rewriting-vs-query check was vacated "
    "because NULL base data is outside the rewriting model.",
)
MISMATCHES = counter(
    "repro_oracle_mismatches_total",
    "Cross-backend disagreements, by the backend that differed.",
    ("backend",),
)

#: Engine modes the checker accepts: the evaluator's modes plus
#: ``"both"``, which runs row *and* columnar per evaluation and adds
#: their agreement as one more oracle axis.
ENGINE_MODES = ("row", "columnar", "auto", "both")


class CrossChecker:
    """Runs scenarios through the engine and live backends and compares."""

    def __init__(
        self,
        max_rewritings: Optional[int] = None,
        engine: str = "auto",
        backends: Sequence[str] = ("sqlite",),
        strategy: str = "c1c4",
    ):
        #: Cap on rewritings checked per scenario (None = all). The fuzz
        #: loop uses a cap so one view-rich scenario cannot eat the budget.
        self.max_rewritings = max_rewritings
        if engine not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {engine!r}: expected one of "
                f"{ENGINE_MODES}"
            )
        #: Which repro engine executes scenario evaluations; ``"both"``
        #: cross-checks the row and columnar engines against each other
        #: on every evaluation (see :func:`_engine_rows`).
        self.engine = engine
        for name in backends:
            if name not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown oracle backend {name!r}: expected a subset "
                    f"of {BACKEND_NAMES}"
                )
        if not backends:
            raise ValueError("at least one oracle backend is required")
        #: Live backends each scenario executes on, in order. Asking for
        #: a backend whose driver is missing raises
        #: :class:`~repro.errors.OracleUnsupported` per check() call.
        self.backends = tuple(backends)
        from ..strategies import normalize_strategy

        #: Planner strategy for the checker's own search. Under
        #: ``"cohen_nutt"`` the C1–C4 and Cohen–Nutt searches run
        #: independently, the union is oracle-checked, and every C1–C4
        #: rewriting must be found-or-subsumed by the Cohen–Nutt set (a
        #: ``dominance`` mismatch otherwise).
        self.strategy = normalize_strategy(strategy)

    def _engine_rows(
        self, report, db, query, extra_views, context: str, sql: str
    ) -> list:
        """Evaluate on the configured engine(s), recording row/columnar
        disagreements as mismatches in ``both`` mode."""
        if self.engine != "both":
            return db.execute(
                query, extra_views=extra_views, engine=self.engine
            ).rows
        row_rows = db.execute(
            query, extra_views=extra_views, engine="row"
        ).rows
        col_rows = db.execute(
            query, extra_views=extra_views, engine="columnar"
        ).rows
        report.checks += 1
        if not rows_multiset_equal(row_rows, col_rows):
            report.mismatches.append(
                Mismatch(context, "engine-row", "engine-columnar",
                         row_rows, col_rows, sql=sql)
            )
        return row_rows

    # ------------------------------------------------------------------

    def check(
        self,
        scenario,
        rewritings: Optional[Sequence[Rewriting]] = None,
        budget: Optional[Union[SearchBudget, BudgetMeter]] = None,
    ) -> CheckReport:
        """Cross-check one :class:`~repro.workloads.random_queries.Scenario`.

        ``rewritings`` defaults to the full ``all_rewritings`` search;
        passing a ``budget`` exercises the degraded search path (partial
        result sets must still be sound).
        """
        report = CheckReport(backends=self.backends)
        db = Database(scenario.catalog, scenario.instance)
        null_base = any(
            value is None
            for rows in scenario.instance.values()
            for row in rows
            for value in row
        )
        with ExitStack() as stack:
            backends = [
                stack.enter_context(create_backend(name))
                for name in self.backends
            ]
            for backend in backends:
                for name, schema in scenario.catalog.tables.items():
                    backend.create_table(name, schema.columns)
                    backend.load_rows(
                        name, scenario.instance.get(name, [])
                    )

            for view in scenario.views:
                self._check_view(report, db, backends, view)

            engine_q, backend_q = self._check_query(
                report, db, backends, scenario.query
            )
            if null_base:
                engine_q = None
                backend_q = {}
                report.skipped.append(
                    "rewriting-vs-query: NULL base data is outside the "
                    "rewriting model (backend agreement still enforced)"
                )

            if rewritings is None:
                rewritings = self._search(scenario, budget, report)
            if self.max_rewritings is not None:
                rewritings = list(rewritings)[: self.max_rewritings]
            for i, rewriting in enumerate(rewritings):
                self._check_rewriting(
                    report, db, backends, rewriting, i, engine_q, backend_q
                )
                report.rewritings += 1
        _record_report(report, null_base)
        return report

    # ------------------------------------------------------------------

    def _search(self, scenario, budget, report) -> list[Rewriting]:
        meter = budget.start() if isinstance(budget, SearchBudget) else budget
        base = all_rewritings(
            scenario.query,
            scenario.views,
            scenario.catalog,
            use_planner=True,
            budget=meter,
        )
        report.strategy_counts["c1c4"] = len(base)
        if self.strategy == "c1c4":
            return base
        from ..core.canonical import canonical_key
        from ..core.rewriter import merge_strategy_extras
        from ..strategies import cohen_nutt_rewritings

        union = merge_strategy_extras(
            base,
            cohen_nutt_rewritings(
                scenario.query, scenario.views, budget=meter
            ),
        )
        report.strategy_counts["cohen_nutt"] = len(union)
        # Completeness dominance: find-or-subsume every C1–C4 rewriting.
        # By construction the union contains the base set, so a
        # violation is a structural regression in the merge — checked
        # anyway, exactly because it must never fire.
        report.checks += 1
        union_keys = {canonical_key(rw.query) for rw in union}
        for rw in base:
            if canonical_key(rw.query) not in union_keys:
                report.mismatches.append(
                    Mismatch(
                        "dominance",
                        "c1c4",
                        "cohen_nutt",
                        [],
                        [],
                        sql=rw.sql(),
                        note=(
                            "C1-C4 rewriting missing from the "
                            "Cohen-Nutt result set"
                        ),
                    )
                )
        return union

    def _check_view(self, report, db, backends, view) -> None:
        context = f"view {view.name}"
        try:
            if self.engine == "both":
                engine_rows = self._engine_rows(
                    report, db, view.block, None, context,
                    backends[0].compile_block(view.block),
                )
            else:
                engine_rows = db.materialize(view.name).rows
        except ReproError as error:
            report.checks += 1
            report.mismatches.append(
                Mismatch(context, "engine", "any-backend", [], [],
                         note=f"engine error: {error}")
            )
            return
        for backend in backends:
            report.checks += 1
            sql = backend.compile_block(view.block)
            try:
                backend_rows = backend.materialize_view(view)
            except backend.error_types as error:
                report.mismatches.append(
                    Mismatch(context, "engine", backend.name, [], [],
                             sql=sql, note=f"{backend.name} error: {error}")
                )
                continue
            if not rows_multiset_equal(engine_rows, backend_rows):
                report.mismatches.append(
                    Mismatch(context, "engine", backend.name,
                             engine_rows, backend_rows, sql=sql)
                )

    def _check_query(
        self, report, db, backends, query: QueryBlock
    ) -> tuple[Optional[list], dict[str, list]]:
        engine_rows: Optional[list] = None
        engine_note = ""
        try:
            engine_rows = self._engine_rows(
                report, db, query, None, "query",
                backends[0].compile_block(query),
            )
        except ReproError as error:
            engine_note = f"engine error: {error}"
        backend_q: dict[str, list] = {}
        for backend in backends:
            report.checks += 1
            sql = backend.compile_block(query)
            note = engine_note
            backend_rows: Optional[list] = None
            try:
                backend_rows = backend.execute_block(query)
            except backend.error_types as error:
                note = (note + "; " if note else "") + (
                    f"{backend.name} error: {error}"
                )
            if note or not rows_multiset_equal(
                engine_rows or [], backend_rows or []
            ):
                report.mismatches.append(
                    Mismatch("query", "engine", backend.name,
                             engine_rows or [], backend_rows or [],
                             sql=sql, note=note)
                )
            if backend_rows is not None:
                backend_q[backend.name] = backend_rows
        return engine_rows, backend_q

    def _check_rewriting(
        self, report, db, backends, rewriting, index, engine_q, backend_q
    ) -> None:
        context = f"rewriting[{index}] using {','.join(rewriting.view_names)}"
        sql = rewriting.sql()
        engine_rows: Optional[list] = None
        engine_note = ""
        try:
            engine_rows = self._engine_rows(
                report, db, rewriting.query, rewriting.extra_views(),
                context, sql,
            )
        except ReproError as error:
            engine_note = f"engine error: {error}"

        for backend in backends:
            note = engine_note
            backend_rows: Optional[list] = None
            try:
                for aux in rewriting.aux_views:
                    backend.create_local_view(aux)
                backend_rows = backend.execute_block(rewriting.query)
            except backend.error_types as error:
                note = (note + "; " if note else "") + (
                    f"{backend.name} error: {error}"
                )
            finally:
                backend.drop_local_views()

            report.checks += 1
            if note or not rows_multiset_equal(
                engine_rows or [], backend_rows or []
            ):
                report.mismatches.append(
                    Mismatch(context, "engine", backend.name,
                             engine_rows or [], backend_rows or [],
                             sql=sql, note=note)
                )
                continue
            # Pure-independent soundness: the rewriting must equal the
            # query on the live backend alone (the repro engine is not
            # involved at all).
            report.checks += 1
            query_rows = backend_q.get(backend.name)
            if query_rows is not None and backend_rows is not None:
                if not rows_multiset_equal(backend_rows, query_rows):
                    report.mismatches.append(
                        Mismatch(
                            f"{context} vs query",
                            f"{backend.name} rewriting",
                            f"{backend.name} query",
                            backend_rows, query_rows, sql=sql,
                        )
                    )
        # And within the engine (the existing differential guarantee).
        report.checks += 1
        if engine_q is not None and engine_rows is not None:
            if not rows_multiset_equal(engine_rows, engine_q):
                report.mismatches.append(
                    Mismatch(f"{context} vs query", "engine rewriting",
                             "engine query", engine_rows, engine_q, sql=sql)
                )


def _record_report(report: CheckReport, null_base: bool) -> None:
    """Fold one scenario's outcome into the active metrics registry.

    Recorded once per :meth:`CrossChecker.check` so counter totals match
    report totals exactly, whatever path produced the mismatches.
    """
    SCENARIOS.inc()
    if report.checks:
        CHECKS.inc(report.checks)
    if null_base:
        VACATIONS.inc()
    for mismatch in report.mismatches:
        token = mismatch.right_label.split()[0]
        MISMATCHES.labels(token if token in BACKEND_NAMES else "engine").inc()


def check_scenario(
    scenario,
    rewritings: Optional[Sequence[Rewriting]] = None,
    budget: Optional[Union[SearchBudget, BudgetMeter]] = None,
    max_rewritings: Optional[int] = None,
    engine: str = "auto",
    backends: Sequence[str] = ("sqlite",),
    strategy: str = "c1c4",
) -> CheckReport:
    """Convenience wrapper: one-shot :class:`CrossChecker` run."""
    return CrossChecker(
        max_rewritings=max_rewritings,
        engine=engine,
        backends=backends,
        strategy=strategy,
    ).check(scenario, rewritings=rewritings, budget=budget)
