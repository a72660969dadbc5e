"""Empirical multiset-equivalence checking (the testing oracle).

Theorems 3.1, 3.2 and 4.1 claim that rewritten queries are
*multiset-equivalent* to the original. This module checks that claim
empirically: it generates seeded random database instances for a catalog
and compares the two queries' result multisets on each. A disagreement is
returned as a concrete counterexample database.

Random instances use small value domains on purpose — collisions are what
exercise joins, grouping and duplicate semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .blocks.query_block import QueryBlock, ViewDef
from .catalog.schema import Catalog
from .core.result import Rewriting
from .engine.database import Database
from .engine.table import Table


@dataclass
class Counterexample:
    """A database on which the two queries disagree."""

    tables: dict[str, list[tuple]]
    left_rows: list[tuple]
    right_rows: list[tuple]

    def __str__(self) -> str:
        lines = ["counterexample database:"]
        for name, rows in self.tables.items():
            lines.append(f"  {name}: {rows}")
        lines.append(f"  left result:  {sorted(map(str, self.left_rows))}")
        lines.append(f"  right result: {sorted(map(str, self.right_rows))}")
        return "\n".join(lines)


def random_instance(
    catalog: Catalog,
    rng: random.Random,
    max_rows: int = 8,
    domain: int = 4,
    respect_keys: bool = True,
) -> dict[str, list[tuple]]:
    """A random instance for every base table of the catalog.

    Values are small non-negative integers; declared keys are honoured
    (duplicated key values are dropped) unless ``respect_keys`` is False.
    """
    instance: dict[str, list[tuple]] = {}
    for name, schema in catalog.tables.items():
        rows = [
            tuple(rng.randrange(domain) for _ in schema.columns)
            for _ in range(rng.randrange(max_rows + 1))
        ]
        if respect_keys and schema.keys:
            key_positions = [
                [schema.columns.index(c) for c in key] for key in schema.keys
            ]
            seen: set[tuple] = set()
            unique_rows = []
            for row in rows:
                fingerprints = tuple(
                    tuple(row[p] for p in positions)
                    for positions in key_positions
                )
                if any(fp in seen for fp in fingerprints):
                    continue
                seen.update(fingerprints)
                unique_rows.append(row)
            rows = unique_rows
        instance[name] = rows
    return instance


def check_equivalent(
    catalog: Catalog,
    left: Union[str, QueryBlock],
    right: Union[str, QueryBlock, Rewriting],
    trials: int = 50,
    seed: int = 0,
    max_rows: int = 8,
    domain: int = 4,
    respect_keys: bool = True,
    compare: str = "multiset",
) -> Optional[Counterexample]:
    """Compare two queries on ``trials`` random databases.

    ``right`` may be a :class:`Rewriting`, whose auxiliary views are then
    supplied to the engine. ``compare`` is ``"multiset"`` (the paper's
    equivalence notion) or ``"set"`` (Section 5 comparisons).
    Returns ``None`` on agreement, else the first counterexample; raises
    ``ValueError`` for ``trials < 1``, where no database was compared.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    extra: Mapping[str, ViewDef] = {}
    right_query: Union[str, QueryBlock]
    if isinstance(right, Rewriting):
        extra = right.extra_views()
        right_query = right.query
    else:
        right_query = right

    for _trial in range(trials):
        instance = random_instance(
            catalog, rng, max_rows=max_rows, domain=domain,
            respect_keys=respect_keys,
        )
        db = Database(catalog, instance)
        left_result = db.execute(left)
        right_result = db.execute(right_query, extra_views=extra)
        agree = (
            left_result.multiset_equal(right_result)
            if compare == "multiset"
            else left_result.set_equal(right_result)
        )
        if not agree:
            return Counterexample(
                tables=instance,
                left_rows=left_result.rows,
                right_rows=right_result.rows,
            )
    return None


def assert_equivalent(
    catalog: Catalog,
    left: Union[str, QueryBlock],
    right: Union[str, QueryBlock, Rewriting],
    **kwargs,
) -> None:
    """Raise ``AssertionError`` with the counterexample on disagreement."""
    counterexample = check_equivalent(catalog, left, right, **kwargs)
    if counterexample is not None:
        raise AssertionError(str(counterexample))


def materialized_speedup(
    catalog: Catalog,
    tables: Mapping[str, Union[Table, list]],
    query: Union[str, QueryBlock],
    rewriting: Rewriting,
) -> tuple[float, float]:
    """Wall-clock seconds for (original, rewritten-over-materialized-view).

    Materializes the used views first, as a warehouse would, so the
    rewritten query measures only view-scan work (Example 1.1's setting).
    """
    from .obs.metrics import timed

    db = Database(catalog, tables)
    for name in rewriting.view_names:
        db.materialize(name)

    with timed() as original:
        db.execute(query)
    with timed() as rewritten:
        db.execute(rewriting.query, extra_views=rewriting.extra_views())
    return original.seconds, rewritten.seconds
