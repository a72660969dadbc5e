"""Batch-parity differential harness for the concurrent service.

The batch service's core promise is that concurrency is *invisible in
the results*: ``rewrite_batch`` over N seeded scenarios must return, for
every request, exactly what a per-request serial ``api.rewrite`` call
returns — including under tight per-request **count** budgets, whose
trip points are pinned batch-independent by the executor's cold-planner
rule — across the serial, threaded and process execution modes.

Deadline budgets are inherently timing-dependent, so for those the
harness asserts the weaker (but still differential) contract: every
response is a sound subset of the unbudgeted result set, in every mode.

The base seed shifts from the command line, like the soundness harness::

    PYTHONPATH=src python -m pytest tests/integration/test_batch_parity.py --seed 5000
"""

from dataclasses import replace

import pytest

from repro import api
from repro.core.canonical import canonical_key
from repro.obs import SearchBudget
from repro.service import RewriteRequest, rewrite_batch
from repro.workloads.random_queries import random_scenario

#: Scenarios per sweep; matches the soundness harness's acceptance floor.
N_SCENARIOS = 240

#: Deterministic (count-limited) budgets: bit-identical across modes.
COUNT_BUDGETS = (
    None,
    SearchBudget(max_mappings=2),
    SearchBudget(max_candidates=1),
    SearchBudget(max_mappings=2, max_candidates=1),
)

MODES = ("serial", "thread", "process")

PARITY_COUNTER = {"responses": 0, "budget_trips": 0}


def _base_seed(config) -> int:
    return config.getoption("--seed")


def _requests(base: int, count: int, budget=None) -> list[RewriteRequest]:
    out = []
    for seed in range(base, base + count):
        scenario = random_scenario(seed)
        out.append(
            RewriteRequest(
                query=scenario.query,
                catalog=scenario.catalog,
                budget=budget,
                use_set_semantics=True,
                request_id=str(seed),
            )
        )
    return out


def _assert_equal_responses(got, want, context: str) -> None:
    assert got.request_id == want.request_id, context
    assert got.error == want.error, (
        f"{context} seed={got.request_id}: error mismatch "
        f"({got.error!r} vs {want.error!r})"
    )
    assert got.rewritings == want.rewritings, (
        f"{context} seed={got.request_id}: result sets diverge\n"
        f"batch:  {[r.sql() for r in got.rewritings]}\n"
        f"serial: {[r.sql() for r in want.rewritings]}"
    )
    assert got.exhausted == want.exhausted, (
        f"{context} seed={got.request_id}: exhausted flag diverges"
    )
    if got.budget is not None or want.budget is not None:
        assert got.budget == want.budget, (
            f"{context} seed={got.request_id}: budget accounting diverges\n"
            f"batch:  {got.budget}\nserial: {want.budget}"
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "budget",
    COUNT_BUDGETS,
    ids=["unbudgeted", "max_mappings", "max_candidates", "both_counts"],
)
def test_batch_equals_per_request_serial(request, mode, budget):
    """Bit-identical batch results, per mode, per count budget."""
    base = _base_seed(request.config)
    count = N_SCENARIOS if budget is None else N_SCENARIOS // 4
    requests = _requests(base, count, budget=budget)

    want = [api.rewrite(
        r.query,
        r.catalog,
        budget=r.budget,
        request_id=r.request_id,
    ) for r in requests]

    got = rewrite_batch(requests, mode=mode, workers=2)
    assert len(got) == len(requests)
    context = f"mode={mode}"
    for got_response, want_response in zip(got, want):
        _assert_equal_responses(got_response, want_response, context)
        PARITY_COUNTER["responses"] += 1
        if got_response.exhausted:
            PARITY_COUNTER["budget_trips"] += 1


@pytest.mark.parametrize("mode", MODES)
def test_warm_batches_keep_parity(request, mode):
    """A request on its group's warm planner answers as it did cold.

    Each scenario appears twice in a row, so both copies land in one
    slice and one group in every mode, and the second copy runs on the
    planner the first one warmed. Memoization is pure, so results must
    be identical.
    """
    base = _base_seed(request.config)
    requests = [
        replace(r, trace=True) for r in _requests(base, 24) for _ in (0, 1)
    ]
    got = rewrite_batch(requests, mode=mode, workers=2)
    cold, warm = got[0::2], got[1::2]
    warm_hits = 0
    for got_response, want_response in zip(warm, cold):
        _assert_equal_responses(
            got_response, want_response, f"warm mode={mode}"
        )
        # Warm: every substitution the first copy looked up is memoized.
        first = want_response.trace.counters
        second = got_response.trace.counters
        assert second.get("substitution_misses", 0) == 0, second
        if first.get("substitution_hits", 0) + first.get(
            "substitution_misses", 0
        ):
            assert second.get("substitution_hits", 0) > 0, second
        warm_hits += second.get("substitution_hits", 0)
    assert warm_hits > 0


@pytest.mark.parametrize("mode", MODES)
def test_deadline_budgets_stay_sound_subsets(request, mode):
    """Deadline trips are timing-dependent: require a sound subset."""
    base = _base_seed(request.config)
    scenarios = [random_scenario(s) for s in range(base, base + 40)]
    full = {
        scenario.seed: {
            canonical_key(r.query)
            for r in api.rewrite(
                scenario.query, scenario.catalog
            ).rewritings
        }
        for scenario in scenarios
    }
    requests = [
        RewriteRequest(
            query=scenario.query,
            catalog=scenario.catalog,
            budget=SearchBudget(deadline=5e-4),
            request_id=str(scenario.seed),
        )
        for scenario in scenarios
    ]
    got = rewrite_batch(requests, mode=mode, workers=2)
    for response in got:
        keys = {canonical_key(r.query) for r in response.rewritings}
        assert keys <= full[int(response.request_id)], (
            f"mode={mode} seed={response.request_id}: deadline-budgeted "
            f"batch invented a rewriting the full search never produced"
        )


def test_parity_harness_not_vacuous():
    """Runs last: the sweeps above must have covered real work."""
    assert PARITY_COUNTER["responses"] >= 3 * N_SCENARIOS, PARITY_COUNTER
    assert PARITY_COUNTER["budget_trips"] >= 20, PARITY_COUNTER
