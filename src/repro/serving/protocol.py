"""The ``repro-api/1`` JSONL wire protocol of the serving daemon.

One request per line, one response per line, both JSON objects. Every
response is the consolidated envelope (:func:`repro.api.to_envelope`):
top-level ``schema`` / ``kind`` / ``ok`` and exactly one of ``result``
or ``error``, plus the request's ``id`` echoed back so clients may
pipeline.

Request objects (an ``id`` is a string or an integer)::

    {"op": "rewrite", "sql": "SELECT ...", "id": "r1",
     "tenant": "dash", "views": ["Monthly"], "strategy": "default",
     "deadline_ms": 50, "max_mappings": null, "max_candidates": null,
     "max_steps": 3, "unfold": false}
    {"op": "update", "table": "Calls", "insert": [[...], ...],
     "delete": [[...], ...]}
    {"op": "ping"} | {"op": "metrics"} | {"op": "shutdown"}

``op`` defaults to ``rewrite`` when the object carries ``sql``/
``query``. ``repro batch`` reads its input file with the same
:func:`parse_line` and :func:`request_from_wire`, so a batch file
replays against a daemon verbatim and both refuse a malformed line with
the same message.

The ``strategy`` field is a name, validated here and carried in
``RewriteRequest.strategy``: ``"c1c4"`` and ``"cohen_nutt"`` are the
strategies of :mod:`repro.strategies` — ``cohen_nutt`` adds the
Cohen–Nutt complete-rewriting extras to the C1–C4 result set — and
``"default"`` (or absent) means ``c1c4``, the paper's search. Unknown
names refuse in-band with the known names listed.
"""

from __future__ import annotations

import json
from typing import Optional

from ..api import to_envelope
from ..blocks.query_block import ViewDef
from ..catalog.schema import Catalog
from ..core.canonical import canonical_key
from ..errors import ReproError
from ..obs.budget import SearchBudget
from ..service.requests import RewriteRequest, RewriteResponse
from ..strategies import STRATEGY_NAMES, normalize_strategy

#: Ops a daemon understands.
OPS = ("rewrite", "update", "ping", "metrics", "shutdown")

#: The default strategy name every request gets.
DEFAULT_STRATEGY = "default"

#: View sets per catalog version whose serving keys are memoized.
MAX_MEMOIZED_KEYS = 256
_SLOT = "\x00repro-slot\x00"  # a line template's per-request values


class ProtocolError(ReproError):
    """A request line the daemon could not make sense of."""


def strategy_names() -> tuple[str, ...]:
    """Every name the wire ``strategy`` field accepts."""
    return tuple(sorted((DEFAULT_STRATEGY, *STRATEGY_NAMES)))


def resolve_strategy(name: Optional[str]) -> Optional[str]:
    """Validate a wire strategy name: the engine-level strategy to pin
    in ``RewriteRequest.strategy``, or ``None`` for ``"default"`` /
    absent (leave the request's own)."""
    if not name or name == DEFAULT_STRATEGY:
        return None
    if name not in STRATEGY_NAMES:
        raise ProtocolError(
            f"unknown strategy {name!r}; known: "
            + ", ".join(strategy_names())
        )
    return name


# ----------------------------------------------------------------------
# Request parsing

def parse_line(line: str, line_no: int = 0) -> dict:
    """One wire line -> a validated op object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            f"line {line_no}: not valid JSON ({error})"
        ) from error
    if isinstance(obj, str):
        obj = {"op": "rewrite", "sql": obj}
    if not isinstance(obj, dict):
        raise ProtocolError(f"line {line_no}: expected a JSON object")
    op = obj.get("op")
    if op is None:
        op = "rewrite" if ("sql" in obj or "query" in obj) else None
        obj["op"] = op
    if op not in OPS:
        raise ProtocolError(
            f"line {line_no}: unknown op {op!r}; known: "
            + ", ".join(OPS)
        )
    if isinstance(obj.get("id"), (bool, float, list, dict)):
        raise ProtocolError(
            f"line {line_no}: 'id' must be a string or an integer"
        )
    return obj


def _number(obj: dict, name: str, line_no: int, integer: bool = True):
    """``obj[name]`` when it is a JSON number of the wanted kind, ``None``
    when absent; anything else is refused, never coerced."""
    value = obj.get(name)
    if value is None:
        return None
    wanted = int if integer else (int, float)
    if not isinstance(value, wanted) or isinstance(value, bool):
        expected = "an integer" if integer else "a number"
        raise ProtocolError(f"line {line_no}: {name!r} must be {expected}")
    return value


def budget_from_wire(obj: dict, line_no: int = 0) -> Optional[SearchBudget]:
    """The search budget a wire object (or a CLI namespace's ``vars``)
    carries in ``deadline_ms`` / ``max_mappings`` / ``max_candidates``."""
    deadline_ms = _number(obj, "deadline_ms", line_no, integer=False)
    max_mappings = _number(obj, "max_mappings", line_no)
    max_candidates = _number(obj, "max_candidates", line_no)
    if (
        deadline_ms is None
        and max_mappings is None
        and max_candidates is None
    ):
        return None
    return SearchBudget(
        deadline=deadline_ms / 1000.0 if deadline_ms is not None else None,
        max_mappings=max_mappings,
        max_candidates=max_candidates,
    )


def sql_from_wire(obj: dict, line_no: int = 0) -> str:
    """The statement of a ``rewrite`` op object (``sql``, or ``query``)."""
    sql = obj.get("sql", obj.get("query"))
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError(
            f"line {line_no}: 'sql' must be a non-empty SELECT string"
        )
    return sql


def request_from_wire(
    obj: dict, catalog: Catalog, line_no: int = 0
) -> RewriteRequest:
    """A ``rewrite`` op object -> the service's RewriteRequest."""
    sql = sql_from_wire(obj, line_no)
    views = None
    if obj.get("views") is not None:
        names = obj["views"]
        if not isinstance(names, list):
            raise ProtocolError(
                f"line {line_no}: 'views' must be a list of view names"
            )
        try:
            views = tuple(catalog.view(name) for name in names)
        except ReproError as error:
            raise ProtocolError(f"line {line_no}: {error}") from error
    try:
        strategy = normalize_strategy(resolve_strategy(obj.get("strategy")))
    except ProtocolError as error:
        raise ProtocolError(f"line {line_no}: {error}") from error
    max_steps = _number(obj, "max_steps", line_no)
    request_id = obj.get("id")
    return RewriteRequest(
        query=sql,
        catalog=catalog,
        views=views,
        budget=budget_from_wire(obj, line_no),
        max_steps=max_steps if max_steps is not None else 3,
        unfold=bool(obj.get("unfold", False)),
        collect_metrics=bool(obj.get("collect_metrics", False)),
        request_id=str(request_id) if request_id is not None else None,
        strategy=strategy,
    )


def update_from_wire(
    obj: dict, catalog: Catalog, line_no: int = 0
) -> tuple[str, list[tuple], list[tuple]]:
    """An ``update`` op object -> ``(table, insert rows, delete rows)``.

    ``insert`` / ``delete`` are optional, and each must be a JSON array
    of arrays: a string is not read as rows of characters.
    """
    table = obj.get("table")
    if not isinstance(table, str) or not catalog.is_table(table):
        raise ProtocolError(f"line {line_no}: 'table' must name a base table")

    def rows(name: str) -> list[tuple]:
        value = obj.get(name, [])
        if not isinstance(value, list) or not all(
            isinstance(row, list) for row in value
        ):
            raise ProtocolError(
                f"line {line_no}: {name!r} must be a list of rows"
            )
        return [tuple(row) for row in value]

    return table, rows("insert"), rows("delete")


# ----------------------------------------------------------------------
# Serving fingerprints

def view_fingerprint(view: ViewDef) -> tuple:
    """A value-identity for one view: its name, the canonical key of its
    definition and its output names."""
    return (view.name, canonical_key(view.block), view.output_names)


def serving_group_key(request: RewriteRequest) -> tuple:
    """The memo-tier fingerprint of one request.

    Built for a *mutating* catalog: only the request's own candidate
    views contribute their cardinality estimates, so a maintenance
    delta on view V changes the keys of exactly the groups that use V —
    groups pinned to other views keep their fingerprints and stay hot.
    Views are keyed by :func:`view_fingerprint`: views equal up to the
    column renaming and FROM order the canonical key ignores share a key.
    """
    return serving_keys(request)[0]


def serving_keys(request: RewriteRequest) -> tuple[tuple, tuple, tuple]:
    """``(fingerprint, definitions, cardinalities)`` of one request, from
    one pass over its catalog.

    ``fingerprint`` is :func:`serving_group_key`. ``definitions`` is the
    fingerprint without statistics — table schemas less ``row_count`` /
    ``distinct_counts``, the view fingerprints and the semantics flag —
    which, with the request's own fields, fixes the set of rewritings.
    ``cardinalities`` is the rest: each table's row and distinct counts
    and each candidate view's row count, what cost ranking reads.

    Memoized in :meth:`Catalog.memo` per view set, so until the catalog
    changes (through its methods) the same tuples come back.
    """
    catalog = request.catalog
    memo = catalog.memo() if catalog else {}
    memo_key = (request.views, request.use_set_semantics)
    keys = memo.get(memo_key)
    if keys is not None:
        return keys
    views = request.effective_views()
    tables = tuple(sorted(catalog.tables.items())) if catalog else ()
    prints = tuple(view_fingerprint(v) for v in views)
    counts = tuple(
        catalog.row_count(v.name) if catalog else None for v in views
    )
    semantics = request.use_set_semantics
    keys = (
        (tables, tuple(zip(prints, counts)), semantics),
        (
            tuple((s.name, s.columns, s.keys, s.fds) for _n, s in tables),
            prints,
            semantics,
        ),
        (tuple((s.row_count, s.distinct_counts) for _n, s in tables), counts),
    )
    if len(memo) >= MAX_MEMOIZED_KEYS:
        memo.clear()
    memo[memo_key] = keys
    return keys


# ----------------------------------------------------------------------
# Response lines

def line_template(response: RewriteResponse) -> Optional[tuple[str, ...]]:
    """``response``'s ``rewrite`` envelope line, encoded once and split
    around its ``id``, ``result.request_id`` and ``result.elapsed``;
    ``None`` when that split is ambiguous. Cached, never pickled."""
    if "_cached_line" in response.__dict__:
        return response.__dict__["_cached_line"]
    doc = to_envelope(response, kind="rewrite", request_id=_SLOT)
    doc["result"].update(request_id=_SLOT, elapsed=_SLOT)
    pieces = (json.dumps(doc) + "\n").split(json.dumps(_SLOT))
    template = tuple(pieces) if len(pieces) == 4 else None
    response.__dict__["_cached_line"] = template
    return template


def encoded_line(response: RewriteResponse, wire_id) -> bytes:
    """The bytes of ``json.dumps(to_envelope(response, kind="rewrite",
    request_id=wire_id)) + "\\n"``: spliced into the response's
    :func:`line_template` when it carries one and ``wire_id`` is set."""
    template = response.__dict__.get("_cached_line")
    if template is None or wire_id is None:
        doc = to_envelope(response, kind="rewrite", request_id=wire_id)
        return (json.dumps(doc) + "\n").encode("utf-8")
    head, middle, tail, end = template
    return (
        f"{head}{json.dumps(wire_id)}{middle}{json.dumps(response.request_id)}"
        f"{tail}{json.dumps(round(response.elapsed, 6))}{end}"
    ).encode("utf-8")
