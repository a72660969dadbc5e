"""Seeded input generation: schemas, request streams, data instances.

Everything the program under test receives is produced here, in the
harness process, from ``--seed``; the same seed yields byte-identical
streams (``test_harness.py`` pins that). The program sees only these
inputs, never the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro import RewriteRequest, block_to_sql
from repro.workloads import star, telephony
from repro.workloads.random_queries import Scenario, random_scenario

# ----------------------------------------------------------------------
# The bench star schema: repro.workloads.star's three tables plus twelve
# summary views, as the DDL script `repro serve --schema` loads.

_AGGREGATES = "SUM(Amount), SUM(Qty), COUNT(Sale_Id)"
_SALES_GROUPINGS = (
    ("Prod_Id", "Store_Id", "Day", "Month"),
    ("Prod_Id", "Store_Id", "Month"),
    ("Prod_Id", "Day", "Month"),
    ("Store_Id", "Day", "Month"),
    ("Prod_Id", "Month"),
    ("Store_Id", "Month"),
    ("Day", "Month"),
    ("Prod_Id", "Store_Id"),
    ("Prod_Id",),
    ("Month",),
)


def _star_ddl() -> tuple[str, tuple[str, ...]]:
    statements = [
        "CREATE TABLE Sales (Sale_Id, Prod_Id, Store_Id, Day, Month, Qty, "
        "Amount, PRIMARY KEY (Sale_Id));",
        "CREATE TABLE Product (Prod_Id, Category, PRIMARY KEY (Prod_Id));",
        "CREATE TABLE Store (Store_Id, Region, PRIMARY KEY (Store_Id));",
    ]
    names = []
    for columns in _SALES_GROUPINGS:
        name = "S_" + "_".join(c.split("_")[0] for c in columns)
        cols = ", ".join(columns)
        statements.append(
            f"CREATE VIEW {name} ({cols}, Revenue, Units, N) AS "
            f"SELECT {cols}, {_AGGREGATES} FROM Sales GROUP BY {cols};"
        )
        names.append(name)
    for dim, table, key in (
        ("Category", "Product", "Prod_Id"),
        ("Region", "Store", "Store_Id"),
    ):
        name = f"S_{dim}_Month"
        statements.append(
            f"CREATE VIEW {name} ({dim}, Month, Revenue, Units, N) AS "
            f"SELECT {dim}, Month, {_AGGREGATES} FROM Sales, {table} "
            f"WHERE Sales.{key} = {table}.{key} GROUP BY {dim}, Month;"
        )
        names.append(name)
    return "\n".join(statements) + "\n", tuple(names)


STAR_SCHEMA_SQL, STAR_VIEW_NAMES = _star_ddl()

#: The dashboard's fixed texts: one fingerprint, every request warm.
HOT_QUERIES = (
    "SELECT Prod_Id, SUM(Amount) FROM Sales GROUP BY Prod_Id",
    "SELECT Store_Id, SUM(Amount) FROM Sales WHERE Month = 12 "
    "GROUP BY Store_Id",
    "SELECT Month, COUNT(Sale_Id) FROM Sales GROUP BY Month",
    "SELECT Category, SUM(Amount) FROM Sales, Product "
    "WHERE Sales.Prod_Id = Product.Prod_Id GROUP BY Category",
    "SELECT Region, Month, SUM(Qty) FROM Sales, Store "
    "WHERE Sales.Store_Id = Store.Store_Id GROUP BY Region, Month",
    "SELECT Prod_Id, Month, SUM(Qty) FROM Sales WHERE Month >= 6 "
    "GROUP BY Prod_Id, Month",
    "SELECT Day, SUM(Amount) FROM Sales WHERE Month = 3 GROUP BY Day",
    "SELECT Store_Id, Prod_Id, SUM(Amount), COUNT(Sale_Id) FROM Sales "
    "GROUP BY Store_Id, Prod_Id HAVING SUM(Amount) > 1000",
)

#: Ad hoc templates with the exclusive upper bound of their HAVING
#: constant ``{k}`` (sized so the filter is selective on the oracle's
#: star instance); ``{m}``/``{d}`` are a month and a day. The last one
#: asks for MIN, which no summary view keeps: it is the share of ad hoc
#: traffic the views cannot answer.
ADHOC_TEMPLATES = (
    ("SELECT Prod_Id, SUM(Amount) FROM Sales WHERE Month = {m} "
     "GROUP BY Prod_Id HAVING SUM(Amount) > {k}", 3000),
    ("SELECT Store_Id, Month, SUM(Qty), COUNT(Sale_Id) FROM Sales "
     "WHERE Day <= {d} AND Month >= {m} GROUP BY Store_Id, Month "
     "HAVING SUM(Qty) > {k}", 40),
    ("SELECT Category, SUM(Amount) FROM Sales, Product "
     "WHERE Sales.Prod_Id = Product.Prod_Id AND Month >= {m} "
     "GROUP BY Category HAVING SUM(Amount) > {k}", 40000),
    ("SELECT Region, SUM(Qty) FROM Sales, Store "
     "WHERE Sales.Store_Id = Store.Store_Id AND Month = {m} "
     "GROUP BY Region HAVING SUM(Qty) > {k}", 400),
    ("SELECT Prod_Id, MIN(Amount) FROM Sales WHERE Month = {m} "
     "GROUP BY Prod_Id HAVING MIN(Amount) > {k}", 1000),
)

#: serve-mixed traffic shares; hot takes the remainder.
MIXED_SHARES = {"adhoc": 0.20, "pinned": 0.10, "update": 0.02}
UPDATE_ROWS = 10


def _pinned_subsets() -> list[tuple[str, ...]]:
    """The 64 three-view subsets pinned requests draw from. 64 >
    PlannerCache.MAX_PLANNERS (8): planners are evicted and the shared
    tier's lookup path is exercised. The pool belongs to the workload's
    definition, so it does not move with ``--seed``; which subset each
    request pins does."""
    subsets = list(itertools.combinations(STAR_VIEW_NAMES, 3))
    random.Random("pinned-subsets").shuffle(subsets)
    return subsets[:64]


PINNED_SUBSETS = _pinned_subsets()


def star_tables(seed: int, n_sales: int) -> dict[str, list[tuple]]:
    """A seeded instance of the bench star schema (oracle + probes)."""
    return star.generate(n_sales=n_sales, seed=seed, view_names=()).tables


@dataclass(frozen=True)
class ServeOp:
    """One operation of a serve-* stream.

    ``cls`` is the latency class: ``hot``, ``post_update`` (the first
    request on a hot text after an update), ``adhoc``, ``pinned`` or
    ``update``. ``wire`` is the JSON object sent on the socket.
    """

    cls: str
    wire: dict


def _class_counts(workload: str, n: int) -> dict[str, int]:
    counts = {"adhoc": 0, "pinned": 0, "update": 0}
    if workload == "serve-mixed":
        counts = {
            cls: max(1, round(n * share))
            for cls, share in MIXED_SHARES.items()
        }
    counts["hot"] = n - sum(counts.values())
    return counts


def serve_stream(
    workload: str, seed: int, n_ops: int, segments: int, n_warm: int
) -> tuple[list[ServeOp], list[ServeOp]]:
    """The seeded ``(warm-up ops, timed ops)`` of a serve workload.

    The class schedule is fixed; the seed picks the contents (which hot
    text, which constants, which pinned subset, which rows). Each timed
    segment has exactly the same class composition, every class evenly
    spread, and is one whole invalidation cycle: it starts with its
    update (every view reads ``Sales``, so an update resets all memo
    state). Memo growth therefore follows the same profile in every
    segment and under every seed, and segments compare like with like.
    The warm-up has the same mix and shares the stream's state: no ad
    hoc text is ever sent twice, warm-up included.
    """
    rng = random.Random(f"{workload}:{seed}")
    per_segment, rest = divmod(n_ops, segments)
    if rest:
        raise ValueError("n_ops must be a multiple of the segment count")
    used_texts: set[str] = set()
    sale_ids = itertools.count(1_000_000)
    # One template rotation per class, so the mix of templates inside a
    # class does not depend on how the seed interleaved the classes.
    template_turn = {"adhoc": itertools.count(), "pinned": itertools.count()}
    stale_hot: set[int] = set()

    def fresh_text(cls: str) -> str:
        template, k_max = ADHOC_TEMPLATES[
            next(template_turn[cls]) % len(ADHOC_TEMPLATES)
        ]
        while True:
            text = template.format(
                m=rng.randint(1, 12),
                d=rng.randint(1, 28),
                k=rng.randrange(k_max),
            )
            if text not in used_texts:
                used_texts.add(text)
                return text

    def emit(count: int) -> list[ServeOp]:
        counts = _class_counts(workload, count)
        # A fixed schedule: every class evenly spread over the segment,
        # updates on the cycle boundaries (first one first).
        slots = sorted(
            ((i + (cls != "update") / 2) / n, cls)
            for cls, n in counts.items()
            for i in range(n)
        )
        classes = [cls for _at, cls in slots]
        ops = []
        for cls in classes:
            if cls == "hot":
                index = rng.randrange(len(HOT_QUERIES))
                if index in stale_hot:
                    stale_hot.discard(index)
                    cls = "post_update"
                wire = {"op": "rewrite", "sql": HOT_QUERIES[index]}
            elif cls == "adhoc":
                wire = {"op": "rewrite", "sql": fresh_text(cls)}
            elif cls == "pinned":
                wire = {
                    "op": "rewrite",
                    "sql": fresh_text(cls),
                    "views": list(rng.choice(PINNED_SUBSETS)),
                }
            else:
                rows = [
                    [
                        next(sale_ids),
                        rng.randrange(50),
                        rng.randrange(20),
                        rng.randint(1, 28),
                        rng.randint(1, 12),
                        rng.randint(1, 10),
                        rng.randint(1, 1000),
                    ]
                    for _ in range(UPDATE_ROWS)
                ]
                wire = {"op": "update", "table": "Sales", "insert": rows,
                        "delete": []}
                stale_hot.update(range(len(HOT_QUERIES)))
            ops.append(ServeOp(cls, wire))
        return ops

    warm = emit(n_warm)
    timed = [op for _ in range(segments) for op in emit(per_segment)]
    return warm, timed


# ----------------------------------------------------------------------
# batch-cold


def batch_scenarios(seed: int, n: int) -> list[Scenario]:
    """``n`` random scenarios, each its own catalog (distinct fingerprint)."""
    base = seed * 1_000_003
    return [random_scenario(base + i) for i in range(n)]


def batch_requests(scenarios, **fields) -> list[RewriteRequest]:
    """SQL *text* plus its own catalog: the full parse path runs."""
    return [
        RewriteRequest(
            query=block_to_sql(s.query),
            catalog=s.catalog,
            request_id=f"b{i}",
            **fields,
        )
        for i, s in enumerate(scenarios)
    ]


# ----------------------------------------------------------------------
# warehouse-exec (Example 1.1)

#: The SELECT that V1 materialises, with the aggregate named so SQLite's
#: CREATE TABLE ... AS yields V1's declared column names.
V1_SELECT = telephony.VIEW_SQL.split(" AS\n", 1)[1].strip()
V1_SELECT_NAMED = V1_SELECT.replace(
    "SUM(Charge)", "SUM(Charge) AS Monthly_Earnings", 1
)


def warehouse_statements(seed: int, n: int, n_calls: int) -> list[str]:
    """``n`` distinct Example 1.1 statements (threshold x year).

    Thresholds straddle the per-plan yearly earnings of an ``n_calls``
    warehouse, so answers are neither empty nor everything.
    """
    rng = random.Random(f"warehouse:{seed}")
    typical = n_calls * 250 // 2 // 4  # a mid-popularity plan's year
    seen: set[tuple] = set()
    out = []
    while len(out) < n:
        pick = (rng.randrange(typical // 20, typical * 2), rng.choice((1994, 1995)))
        if pick in seen:
            continue
        seen.add(pick)
        out.append(
            telephony.QUERY_SQL.format(threshold=pick[0])
            .replace("Year = 1995", f"Year = {pick[1]}")
            .strip()
        )
    return out
