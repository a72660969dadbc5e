"""The trace and the metrics are one instrumentation seam.

A traced rewrite run inside ``collecting(registry)`` reports its search
twice: as ``RewriteTrace.counters`` and as the ``repro_planner_*``
families. Both come from one fold of the planner's PlannerStats and memo
counters, so over seeded scenarios every trace counter must equal its
metric delta. The span tree's stage names, nesting and call counts are
pinned by ``tests/goldens/seam_span_trees.json``; after an intentional
stage change regenerate it with ``pytest --update-goldens``.
"""

import json
from pathlib import Path

import pytest

from repro.core.planner import RewritePlanner
from repro.core.rewriter import search
from repro.memo import clear_shared
from repro.obs import MetricsRegistry, collecting
from repro.workloads.random_queries import random_scenario

GOLDEN_PATH = Path(__file__).parent.parent / "goldens" / "seam_span_trees.json"

SEEDS = range(40)


def _shape(span) -> list:
    """A span's name, call count and children, without timings."""
    return [span.name, span.count, [_shape(c) for c in span.children.values()]]


def traced_searches(seed: int) -> list:
    """``(trace, metrics snapshot)`` for a cold and a warm traced search
    of seed ``seed``'s scenario on one planner, each under a fresh
    registry. Steps and maximality vary with the seed, so some searches
    stop at the step bound and probe the nodes it left unexpanded."""
    clear_shared()
    scenario = random_scenario(seed)
    planner = RewritePlanner(scenario.views, scenario.catalog, True)
    out = []
    for _ in range(2):
        registry = MetricsRegistry()
        with collecting(registry):
            result = search(
                scenario.query,
                scenario.views,
                scenario.catalog,
                planner=planner,
                max_steps=1 + seed % 3,
                include_partial=seed % 2 == 0,
                trace=True,
            )
        out.append((result.trace, registry.snapshot()))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_counters_equal_metric_deltas(seed):
    for trace, snapshot in traced_searches(seed):
        counters = trace.counters
        value = snapshot.counter_value

        def outcome(name, label, **labels):
            return value(name, outcome=label, **labels)

        views = "repro_planner_views_total"
        candidates = "repro_planner_candidates_total"
        memo = "repro_planner_memo_total"
        expected = {
            "searches": value("repro_planner_searches_total"),
            "nodes_expanded": value("repro_planner_nodes_expanded_total"),
            "views_considered": outcome(views, "admitted")
            + outcome(views, "pruned"),
            "views_pruned": outcome(views, "pruned"),
            "candidates_generated": outcome(candidates, "kept")
            + outcome(candidates, "duplicate"),
            "duplicates_skipped": outcome(candidates, "duplicate"),
            "maximality_probes": value(
                "repro_planner_maximality_probes_total"
            ),
            "substitution_hits": outcome(memo, "hit", family="substitution"),
            "substitution_misses": outcome(
                memo, "miss", family="substitution"
            ),
        }
        got = {name: counters.get(name, 0) for name in expected}
        assert got == expected, f"seed={seed}"
        assert expected["searches"] == 1, f"seed={seed}"


def test_span_trees_match_golden(request):
    document = {
        str(seed): [_shape(trace.root) for trace, _ in traced_searches(seed)]
        for seed in SEEDS
    }
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    for seed in SEEDS:
        assert document[str(seed)] == golden[str(seed)], f"seed={seed}"
