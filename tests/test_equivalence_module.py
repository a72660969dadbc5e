"""The equivalence oracle itself: instances, counterexamples, timing."""

import random

import pytest

from repro import Catalog, table
from repro.equivalence import (
    Counterexample,
    assert_equivalent,
    check_equivalent,
    materialized_speedup,
    random_instance,
)


@pytest.fixture
def catalog():
    return Catalog(
        [
            table("K", ["id", "v"], key=["id"]),
            table("M", ["x", "y"]),
        ]
    )


class TestRandomInstance:
    def test_respects_keys(self, catalog):
        rng = random.Random(0)
        for _ in range(30):
            instance = random_instance(catalog, rng, respect_keys=True)
            ids = [row[0] for row in instance["K"]]
            assert len(ids) == len(set(ids))

    def test_can_violate_keys_when_asked(self, catalog):
        rng = random.Random(0)
        seen_duplicate = False
        for _ in range(60):
            instance = random_instance(
                catalog, rng, respect_keys=False, max_rows=8, domain=2
            )
            ids = [row[0] for row in instance["K"]]
            if len(ids) != len(set(ids)):
                seen_duplicate = True
                break
        assert seen_duplicate

    def test_domain_and_size_bounds(self, catalog):
        rng = random.Random(1)
        instance = random_instance(catalog, rng, max_rows=3, domain=2)
        for rows in instance.values():
            assert len(rows) <= 3
            assert all(0 <= v < 2 for row in rows for v in row)


class TestCheckEquivalent:
    def test_detects_inequivalence(self, catalog):
        counterexample = check_equivalent(
            catalog,
            "SELECT x FROM M",
            "SELECT DISTINCT x FROM M",
            trials=40,
        )
        assert counterexample is not None
        assert isinstance(counterexample, Counterexample)
        text = str(counterexample)
        assert "left result" in text and "M" in text

    def test_set_comparison_mode(self, catalog):
        counterexample = check_equivalent(
            catalog,
            "SELECT x FROM M",
            "SELECT DISTINCT x FROM M",
            trials=40,
            compare="set",
        )
        assert counterexample is None

    def test_deterministic_given_seed(self, catalog):
        kwargs = dict(trials=20, seed=7)
        first = check_equivalent(
            catalog, "SELECT x FROM M", "SELECT y FROM M", **kwargs
        )
        second = check_equivalent(
            catalog, "SELECT x FROM M", "SELECT y FROM M", **kwargs
        )
        assert (first is None) == (second is None)
        if first is not None:
            assert first.tables == second.tables

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_no_verdict(self, catalog, trials):
        """Zero databases compared is not agreement."""
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_equivalent(
                catalog,
                "SELECT x FROM M",
                "SELECT DISTINCT x FROM M",
                trials=trials,
            )

    def test_assert_raises_with_counterexample(self, catalog):
        with pytest.raises(AssertionError) as excinfo:
            assert_equivalent(
                catalog,
                "SELECT x FROM M",
                "SELECT DISTINCT x FROM M",
                trials=40,
            )
        assert "counterexample" in str(excinfo.value)

    def test_equivalent_queries_pass(self, catalog):
        assert_equivalent(
            catalog,
            "SELECT x, y FROM M WHERE x = 1",
            "SELECT x, y FROM M WHERE 1 = x",
            trials=20,
        )


class TestMaterializedSpeedup:
    def test_returns_positive_timings(self):
        from repro import RewriteEngine
        from repro.workloads import telephony

        wl = telephony.generate(n_calls=400, seed=5)
        engine = RewriteEngine(wl.catalog)
        rewriting = engine.rewrite(wl.query).best()
        original, rewritten = materialized_speedup(
            wl.catalog, wl.tables, wl.query, rewriting
        )
        assert original > 0 and rewritten > 0
