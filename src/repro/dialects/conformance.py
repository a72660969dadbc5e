"""Dialect conformance corpus: one query per printable construct.

Every construct the emitter can print — projections, filters,
self-joins (forced aliases), GROUP BY with SUM/COUNT and HAVING,
DISTINCT, scalar aggregates (COUNT(*), AVG), arithmetic including
division with a zero divisor in the data, adversarial quoted/keyword
identifiers, and a programmatic NULL literal in the SELECT list — is
represented by one :class:`ConformanceCase` carrying its own schema and
a small instance.

:func:`emit_corpus` renders the whole corpus in one dialect as a
deterministic text document; the golden files under
``tests/dialects/goldens/`` pin one such document per dialect, and the
SQLite goldens are additionally *executed* against the repro engine's
answers (see ``tests/dialects/test_goldens.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..blocks.normalize import parse_query
from ..blocks.query_block import QueryBlock, SelectItem
from ..blocks.terms import Constant
from ..blocks.to_sql import block_to_sql
from ..catalog.schema import Catalog, table
from ..dialects import DialectLike, get_dialect

#: Version tag embedded in every golden document; bump when the corpus
#: itself (not a dialect's emission) changes shape.
CORPUS_VERSION = "repro-conformance/1"


@dataclass(frozen=True)
class ConformanceCase:
    """One construct: schema, query and a small NULL-free instance."""

    name: str
    description: str
    #: table name -> column names.
    tables: Mapping[str, Sequence[str]]
    #: The query as SQL text (parsed through the front end), or None
    #: when ``build`` constructs the block programmatically.
    sql: Optional[str] = None
    build: Optional[object] = None
    instance: Mapping[str, Sequence[tuple]] = field(default_factory=dict)

    def catalog(self) -> Catalog:
        return Catalog(
            [table(name, list(cols)) for name, cols in self.tables.items()]
        )

    def query(self, catalog: Optional[Catalog] = None) -> QueryBlock:
        catalog = catalog or self.catalog()
        if self.build is not None:
            return self.build(catalog)
        return parse_query(self.sql, catalog)

    def emit(self, dialect: DialectLike) -> str:
        return block_to_sql(self.query(), dialect=dialect)


def _null_literal_block(catalog: Catalog) -> QueryBlock:
    # ``NULL`` cannot be written in the paper's input language, but the
    # emitter must still print it: engine-produced blocks carry
    # Constant(None) (e.g. AVG over an empty group decomposition).
    block = parse_query("SELECT A, B FROM R1", catalog)
    return QueryBlock(
        select=block.select + (SelectItem(Constant(None), alias="missing"),),
        from_=block.from_,
        where=block.where,
        group_by=block.group_by,
        having=block.having,
        distinct=block.distinct,
    )


#: The corpus, in emission order. Order is part of the golden format.
CASES: tuple[ConformanceCase, ...] = (
    ConformanceCase(
        name="projection-filter",
        description="plain projection with a conjunctive filter",
        tables={"R1": ("A", "B")},
        sql="SELECT A, B FROM R1 WHERE A < 3 AND B >= 1",
        instance={"R1": [(1, 4), (2, 1), (5, 2), (2, 0)]},
    ),
    ConformanceCase(
        name="self-join-aliases",
        description="self-join forcing occurrence aliases",
        tables={"R1": ("A", "B")},
        sql="SELECT x.A, y.B FROM R1 x, R1 y WHERE x.B = y.A",
        instance={"R1": [(1, 2), (2, 3), (3, 1)]},
    ),
    ConformanceCase(
        name="join-two-tables",
        description="equi-join of two base tables",
        tables={"R1": ("A", "B"), "R2": ("C", "D")},
        sql="SELECT A, D FROM R1, R2 WHERE B = C",
        instance={
            "R1": [(1, 10), (2, 20), (3, 10)],
            "R2": [(10, "x"), (20, "y")],
        },
    ),
    ConformanceCase(
        name="group-sum-count-having",
        description="GROUP BY with SUM/COUNT and a HAVING filter",
        tables={"sales": ("region", "amount")},
        sql=(
            "SELECT region, SUM(amount) AS total, COUNT(amount) AS n "
            "FROM sales GROUP BY region HAVING SUM(amount) > 10"
        ),
        instance={
            "sales": [
                ("east", 10),
                ("east", 20),
                ("west", 5),
                ("north", 30),
            ]
        },
    ),
    ConformanceCase(
        name="distinct",
        description="DISTINCT projection (set semantics)",
        tables={"R1": ("A", "B")},
        sql="SELECT DISTINCT A FROM R1",
        instance={"R1": [(1, 1), (1, 2), (2, 3)]},
    ),
    ConformanceCase(
        name="scalar-aggregates",
        description="scalar COUNT(*) and AVG with no GROUP BY",
        tables={"R1": ("A", "B")},
        sql="SELECT COUNT(*) AS n, AVG(B) AS avg_b FROM R1",
        instance={"R1": [(1, 2), (2, 4), (3, 6)]},
    ),
    ConformanceCase(
        name="arithmetic-division",
        description="row arithmetic incl. division; data has a 0 divisor",
        tables={"R1": ("A", "B")},
        sql="SELECT A, B / A AS ratio, (A + B) * 2 AS scaled FROM R1",
        instance={"R1": [(1, 2), (2, 5), (0, 7)]},
    ),
    ConformanceCase(
        name="aggregate-division",
        description="group-level division of aggregates (AVG shape)",
        tables={"R1": ("A", "B")},
        sql="SELECT A, SUM(B) / COUNT(B) AS mean FROM R1 GROUP BY A",
        instance={"R1": [(1, 2), (1, 4), (2, 9)]},
    ),
    ConformanceCase(
        name="quoted-identifiers",
        description="keyword and embedded-quote identifiers",
        tables={"select": ("group", "order", 'weird "name"')},
        sql=(
            'SELECT "group", "weird ""name""" FROM "select" '
            'WHERE "order" < 5'
        ),
        instance={"select": [("a", 1, "x"), ("b", 9, "y")]},
    ),
    ConformanceCase(
        name="null-literal",
        description="programmatic NULL literal in the SELECT list",
        tables={"R1": ("A", "B")},
        build=_null_literal_block,
        instance={"R1": [(1, 2), (3, 4)]},
    ),
)


def emit_corpus(dialect: DialectLike) -> str:
    """The full corpus as one deterministic golden document."""
    resolved = get_dialect(dialect)
    lines = [
        f"-- {CORPUS_VERSION} dialect={resolved.name}",
        f"-- {len(CASES)} cases; regenerate with: "
        "pytest tests/dialects/test_goldens.py --update-goldens",
        "",
    ]
    for case in CASES:
        lines.append(f"-- case: {case.name}")
        lines.append(f"-- {case.description}")
        lines.append(case.emit(resolved) + ";")
        lines.append("")
    return "\n".join(lines)
