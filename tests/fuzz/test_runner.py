"""The fuzz loop end to end: mutation testing, shrinking, replay.

The acceptance property for the whole oracle subsystem lives here: an
intentionally injected evaluator bug must be *caught* by the loop and
*shrunk* to a tiny repro (≤ 3 rows, ≤ 2 views) that replays.
"""

import json

import pytest

from repro.blocks.exprs import AggFunc
from repro.engine import aggregates
from repro.fuzz import (
    BUG_NAMES,
    FuzzRunner,
    inject_bug,
    replay,
    scenario_from_json,
)
from repro.oracle import check_scenario


def _total_rows(doc):
    return sum(len(rows) for rows in doc["instance"].values())


def test_clean_run_is_clean(tmp_path):
    stats = FuzzRunner(out_dir=tmp_path).run(
        budget_seconds=None, max_scenarios=150
    )
    assert stats.failures == 0, stats.as_dict()
    assert stats.scenarios == 150
    assert stats.rewritings > 0, "a vacuous corpus would prove nothing"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bug", BUG_NAMES)
def test_injected_bug_caught_and_shrunk(tmp_path, bug):
    """Mutation test: every known-bad evaluator variant is detected and
    the repro is minimized below the acceptance thresholds."""
    out = tmp_path / bug
    with inject_bug(bug):
        stats = FuzzRunner(out_dir=out).run(
            budget_seconds=None, max_scenarios=400, max_failures=1
        )
        assert stats.failures >= 1, f"{bug}: fuzzer missed the injected bug"
        assert stats.shrink_iterations > 0

        doc = json.loads(stats.failure_files[0].read_text())
        assert _total_rows(doc) <= 3, doc
        assert len(doc["views"]) <= 2, doc
        assert doc["mismatches"], doc

        # The persisted repro replays to a failure while the bug is in.
        report = replay(stats.failure_files[0])
        assert not report.ok

    # ... and is clean again once the bug is reverted: the failure was
    # the injected mutation, not the corpus.
    report = replay(stats.failure_files[0])
    assert report.ok, report.describe()


def test_inject_bug_restores_dispatch():
    original = dict(aggregates._DISPATCH)
    with inject_bug("min-as-max"):
        assert aggregates._DISPATCH[AggFunc.MIN] is not original[AggFunc.MIN]
    assert aggregates._DISPATCH == original


def test_inject_unknown_bug_rejected():
    with pytest.raises(ValueError):
        with inject_bug("no-such-bug"):
            pass


def test_tight_budget_scenarios_included(tmp_path):
    """Every 5th seed runs under a tight SearchBudget; partial search
    results must be checked too (they appear in the rewriting count)."""
    stats = FuzzRunner(out_dir=tmp_path).run(
        budget_seconds=None, max_scenarios=50
    )
    assert stats.failures == 0
    assert stats.scenarios == 50


def test_per_profile_breakdown_in_stats(tmp_path):
    """Every scenario lands in exactly one profile bucket, and the JSON
    report carries the structured breakdown."""
    stats = FuzzRunner(out_dir=tmp_path).run(
        budget_seconds=None, max_scenarios=40
    )
    doc = stats.as_dict()
    assert doc["profiles"], "profile breakdown missing from the report"
    for bucket in doc["profiles"].values():
        assert set(bucket) == {"scenarios", "checks", "mismatches", "skipped"}
    accounted = sum(
        b["scenarios"] + b["skipped"] for b in doc["profiles"].values()
    )
    assert accounted == stats.scenarios + stats.skipped == 40
    assert sum(b["checks"] for b in doc["profiles"].values()) == stats.checks


def test_fuzz_metrics_recorded_per_profile(tmp_path):
    from repro.obs.metrics import MetricsRegistry, collecting

    registry = MetricsRegistry()
    with collecting(registry):
        stats = FuzzRunner(out_dir=tmp_path).run(
            budget_seconds=None, max_scenarios=20
        )
    snapshot = registry.snapshot()
    # Label order is (profile, outcome); sum the "checked" outcome
    # across profiles and it must equal the runner's own tally.
    scenario_samples = snapshot.families["repro_fuzz_scenarios_total"][
        "samples"
    ]
    checked = sum(v for labels, v in scenario_samples if labels[1] == "checked")
    assert checked == stats.scenarios
    check_samples = snapshot.families["repro_fuzz_checks_total"]["samples"]
    assert sum(v for _, v in check_samples) == stats.checks


def test_repro_file_records_profile_stats(tmp_path):
    with inject_bug("min-as-max"):
        stats = FuzzRunner(out_dir=tmp_path).run(
            budget_seconds=None, max_scenarios=400, max_failures=1
        )
        assert stats.failures >= 1
        doc = json.loads(stats.failure_files[0].read_text())
    assert doc["schema"] == "repro-fuzz/1"
    assert set(doc["profile_stats"]) == {
        "scenarios", "checks", "mismatches", "skipped",
    }
    assert doc["profile_stats"]["mismatches"] >= 1


def test_repro_strategy_round_trip(tmp_path):
    """A repro written by a --strategy run records the producing
    strategy, and replay honours it by default; documents from before
    the field existed replay under c1c4, the search that wrote them."""
    import json as _json

    from repro.fuzz.generate import fuzz_scenario
    from repro.fuzz.serialize import scenario_to_json

    scenario = fuzz_scenario(0)
    doc = scenario_to_json(scenario, strategy="cohen_nutt")
    assert doc["strategy"] == "cohen_nutt"
    path = tmp_path / "repro.json"
    path.write_text(_json.dumps(doc))
    report = replay(path)
    # The dual search ran: per-strategy counts are populated, and the
    # dominance cross-check contributed a comparison.
    assert set(report.strategy_counts) == {"c1c4", "cohen_nutt"}
    assert report.ok, report.describe()

    # Pre-strategy documents (no field at all) stay on C1-C4.
    del doc["strategy"]
    path.write_text(_json.dumps(doc))
    report = replay(path)
    assert set(report.strategy_counts) == {"c1c4"}

    # An explicit argument overrides the recorded strategy.
    report = replay(path, strategy="cohen_nutt")
    assert set(report.strategy_counts) == {"c1c4", "cohen_nutt"}


def test_runner_records_strategy_in_repro(tmp_path):
    """Failures found by a dual-strategy sweep persist strategy='cohen_nutt'
    so the repro replays through the same cross-planner oracle."""
    import json as _json

    with inject_bug("min-as-max"):
        stats = FuzzRunner(out_dir=tmp_path, strategy="cohen_nutt").run(
            budget_seconds=None, max_scenarios=400, max_failures=1
        )
        assert stats.failures >= 1
    doc = _json.loads(stats.failure_files[0].read_text())
    assert doc["strategy"] == "cohen_nutt"


def test_strategy_tallies_per_profile(tmp_path):
    """Dual-strategy runs tally per-strategy found/missed per profile;
    the complete strategy never scores below C1-C4."""
    stats = FuzzRunner(out_dir=tmp_path, strategy="cohen_nutt").run(
        budget_seconds=None, max_scenarios=60
    )
    assert stats.failures == 0, stats.as_dict()
    tallied = 0
    for bucket in stats.profiles.values():
        found_base = bucket.get("c1c4_found", 0)
        found_union = bucket.get("cohen_nutt_found", 0)
        assert found_union >= found_base, stats.profiles
        tallied += found_base + bucket.get("c1c4_missed", 0)
    assert tallied == stats.scenarios, stats.profiles


SEED_4916_REPRO = {
    "schema": "repro-fuzz/1",
    "seed": 4916,
    "tables": [
        {"name": "T0", "columns": ["c0", "c1"], "keys": [], "row_count": 100},
        {
            "name": "T1",
            "columns": ["c0", "c1", "c2", "c3"],
            "keys": [],
            "row_count": 100,
        },
    ],
    "views": [
        "CREATE VIEW V1 (o0, o1) AS\n"
        "SELECT MAX(T1.c2) AS agg0, COUNT(T1.c3) AS agg1\nFROM T1"
    ],
    "query": "SELECT T0.c1, AVG(T0.c0) AS out\nFROM T1, T0\nGROUP BY T0.c1",
    "instance": {"T0": [[1, 1]], "T1": []},
}


def test_seed_4916_regression():
    """The first real bug the oracle found: a scalar aggregation view
    replacing an empty base table manufactured a group (fixed in
    repro.core.aggregate; see tests/core/test_scalar_view_soundness.py).
    The shrunk repro must stay clean forever."""
    scenario = scenario_from_json(SEED_4916_REPRO)
    report = check_scenario(scenario)
    assert report.ok, report.describe()
