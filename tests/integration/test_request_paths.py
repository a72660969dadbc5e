"""Every front end runs the one body: request-path parity.

``core.rewriter.search`` is the only place a rewrite is parsed,
searched, ranked and traced; the facade, the engine, the batch service,
the serving daemon's ``PlannerCache`` and ``repro batch`` differ only in
which planner they hand it. So for the same request they must agree on
everything a caller can see: the rewritings in discovery order, the
ranked order with costs, the original cost and the exhausted flag —
with all views, with a pinned one-view subset, under a count budget
(where a warm planner must not move the trip point) and without a
catalog.
"""

import json

import pytest

from repro import api
from repro.blocks.to_sql import block_to_sql
from repro.cli import main
from repro.core.rewriter import RewriteEngine, search
from repro.obs import SearchBudget
from repro.service import RewriteRequest
from repro.serving import PlannerCache
from repro.serving.memo import LocalMemoTier
from repro.serving.worker import COLD, WARM_LOCAL
from repro.workloads.random_queries import random_scenario

SEEDS = range(40)
CASES = ("all_views", "pinned", "count_budget", "no_catalog")


def outcome(result) -> tuple:
    """What a caller can see of a RewriteResult / RewriteResponse."""
    found = getattr(result, "found", None)
    if found is None:
        found = result.rewritings
    return (
        [rw.sql() for rw in found],
        [(r.sql(), r.cost) for r in result.ranked],
        result.original_cost,
        result.exhausted,
    )


def envelope_outcome(doc: dict) -> tuple:
    """The same, minus discovery order, from a repro-api/1 envelope."""
    result = doc["result"]
    return (
        [(r["sql"], r["cost"]) for r in result["rewritings"]],
        result["original_cost"],
        result["exhausted"],
    )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_path_gives_the_same_answer(
    seed, case, tmp_path, capsys, monkeypatch
):
    sc = random_scenario(seed)
    sql = block_to_sql(sc.query)
    wire = {"query": sql}
    request = RewriteRequest(query=sql, catalog=sc.catalog)
    if case == "pinned":
        request = RewriteRequest(
            query=sql, catalog=sc.catalog, views=(sc.views[0],)
        )
        wire["views"] = [sc.views[0].name]
    elif case == "count_budget":
        request = RewriteRequest(
            query=sql,
            catalog=sc.catalog,
            budget=SearchBudget(max_mappings=2, max_candidates=1),
        )
        wire.update(max_mappings=2, max_candidates=1)
    elif case == "no_catalog":
        request = RewriteRequest(query=sc.query, views=tuple(sc.views))

    want = outcome(
        api.rewrite(
            request.query,
            request.catalog,
            request.views,
            budget=request.budget,
        )
    )
    if case == "no_catalog":
        assert want[1] == [] and want[2] is None
        direct = search(request.query, request.views, None)
    else:
        direct = RewriteEngine(sc.catalog).rewrite(
            request.query, views=request.views, budget=request.budget
        )
    assert outcome(direct) == want, "RewriteEngine.rewrite / search"

    batch = api.rewrite_batch([request], mode="serial")
    assert batch[0].error is None
    assert outcome(batch[0]) == want, "rewrite_batch"

    cache = PlannerCache(LocalMemoTier())
    cache.run(request)
    served, _key, _names, _export, path = cache.run(request)
    # A count-budgeted request plans cold and never caches a planner.
    assert path == (COLD if case == "count_budget" else WARM_LOCAL)
    assert served.error is None
    assert outcome(served) == want, "warm PlannerCache.run"

    if case == "no_catalog":
        return  # `repro batch` lines are textual
    lines = tmp_path / "requests.jsonl"
    lines.write_text(json.dumps(wire) + "\n")
    monkeypatch.setattr("repro.cli._load", lambda args: (sc.catalog, []))
    code = main(["batch", "--schema", "unused", str(lines)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert envelope_outcome(doc) == want[1:], "repro batch"
