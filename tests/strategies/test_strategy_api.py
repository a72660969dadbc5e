"""Strategy selection end to end: names, API, planner memo families.

The golden corpus (:mod:`tests.strategies.test_cohen_nutt_goldens`)
pins *what* the Cohen–Nutt strategy finds; this module pins *how it is
reached* — the ``strategy=`` keyword on :func:`repro.api.rewrite`, the
cross-planner differential oracle's dominance check, and the planner's
per-family strategy memos surviving the serving tier's export/import
round trip.
"""

import pytest

from repro import api
from repro.core.canonical import canonical_key
from repro.core.planner import RewritePlanner
from repro.core.rewriter import RewriteEngine, merge_strategy_extras
from repro.errors import ReproError
from repro.oracle import check_scenario
from repro.strategies import (
    DEFAULT_STRATEGY,
    STRATEGY_NAMES,
    cohen_nutt_rewritings,
    normalize_strategy,
)
from repro.workloads.random_queries import random_scenario

from .cases import CASES


class TestNames:
    def test_normalize(self):
        assert normalize_strategy(None) == DEFAULT_STRATEGY
        for name in STRATEGY_NAMES:
            assert normalize_strategy(name) == name

    def test_unknown_refused(self):
        # "both" was an alias of cohen_nutt; it is refused like any other.
        for name in ("no-such-strategy", "both"):
            with pytest.raises(ReproError, match="unknown strategy"):
                normalize_strategy(name)


class TestApi:
    def test_rewrite_strategy_uplift(self):
        case = CASES[0]
        catalog = case.catalog()
        base = api.rewrite(case.query, catalog=catalog)
        assert not base.rewritings
        extra = api.rewrite(
            case.query, catalog=catalog, strategy="cohen_nutt"
        )
        assert extra.rewritings

    def test_unknown_strategy_refused(self):
        case = CASES[0]
        for name in ("no-such-strategy", "both"):
            with pytest.raises(ReproError, match=f"unknown strategy '{name}'"):
                api.rewrite(case.query, catalog=case.catalog(), strategy=name)


class TestDominance:
    def test_union_contains_c1c4(self):
        """On generic scenarios the union must keep every C1-C4
        rewriting (dominance by construction of the merge)."""
        checked = 0
        for seed in range(40):
            scenario = random_scenario(seed)
            engine = RewriteEngine(scenario.catalog)
            base = engine.rewrite(scenario.query)
            union = engine.rewrite(scenario.query, strategy="cohen_nutt")
            base_keys = {
                canonical_key(r.rewriting.query) for r in base.ranked
            }
            union_keys = {
                canonical_key(r.rewriting.query) for r in union.ranked
            }
            assert base_keys <= union_keys, f"seed={seed}"
            checked += len(base_keys)
        assert checked >= 10, "dominance sweep was vacuous"

    def test_merge_dedups_by_canonical_key(self):
        case = CASES[0]
        extras = cohen_nutt_rewritings(case.query, [case.view])
        merged = merge_strategy_extras(list(extras), extras)
        assert len(merged) == len(extras)

    def test_oracle_flags_dominance_violation(self, monkeypatch):
        """A union that loses C1-C4 rewritings must be caught by the
        cross-planner oracle as a ``dominance`` mismatch."""
        scenario = next(
            sc
            for sc in (random_scenario(seed) for seed in range(60))
            if RewriteEngine(sc.catalog).rewrite(sc.query).ranked
        )
        monkeypatch.setattr(
            "repro.core.rewriter.merge_strategy_extras",
            lambda candidates, extras: [],
        )
        report = check_scenario(scenario, strategy="cohen_nutt")
        assert not report.ok
        assert any(m.context == "dominance" for m in report.mismatches)


class TestMemoFamilies:
    def _planner(self, case):
        return RewritePlanner([case.view], case.catalog())

    def test_memo_is_per_family(self):
        planner = self._planner(CASES[0])
        a = planner.memo("cohen_nutt")
        b = planner.memo("other")
        a.put(("k",), ("v",))
        assert ("k",) not in b
        assert planner.memo("cohen_nutt") is a
        assert planner.memo("substitution") is planner.memos["substitution"]

    def test_an_insert_into_either_family_moves_the_memo_version(self):
        case = CASES[0]
        planner = self._planner(case)
        before = planner.memo_version
        planner.all_rewritings(case.query)
        searched = planner.memo_version
        assert searched > before  # the substitution family learned
        first = cohen_nutt_rewritings(
            case.query, [case.view], planner=planner
        )
        assert first
        learned = planner.memo_version
        assert learned > searched  # and so did the cohen_nutt family
        # A memo hit teaches the planner nothing.
        cohen_nutt_rewritings(case.query, [case.view], planner=planner)
        planner.all_rewritings(case.query)
        assert planner.memo_version == learned

    def test_export_import_round_trip(self):
        """One entry shape: every family, substitution included, travels
        as ``(family, key, value)`` and survives export -> import whole."""
        case = CASES[0]
        planner = self._planner(case)
        planner.all_rewritings(case.query)
        planner.memo("cohen_nutt").put(("k1",), ("v1",))
        planner.memo("cohen_nutt").put(("k2",), ("v2",))
        exported = planner.export_memos()
        assert all(len(entry) == 3 for entry in exported)
        families = {family for family, _key, _value in exported}
        assert families == {"substitution", "cohen_nutt"}
        assert ("cohen_nutt", ("k1",), ("v1",)) in exported

        other = self._planner(case)
        assert other.import_memos(exported) == len(exported)
        assert other.export_memos() == exported
        assert other.memo("cohen_nutt").get(("k2",)) == ("v2",)
        # Existing entries win a re-import.
        assert other.import_memos(exported) == 0

    def test_import_drops_out_of_range_substitution_entries(self):
        planner = self._planner(CASES[0])
        adopted = planner.import_memos(
            [
                ("substitution", ("block", 0), []),
                ("substitution", ("block", 7), []),
            ]
        )
        assert adopted == 1
        assert ("block", 7) not in planner.memo("substitution")

    def test_search_warms_from_imported_memo(self):
        case = CASES[0]
        planner = self._planner(case)
        first = cohen_nutt_rewritings(
            case.query, [case.view], planner=planner
        )
        assert first
        exported = planner.export_memos()
        warm = self._planner(case)
        warm.import_memos(exported)
        assert case.query in warm.memo("cohen_nutt")
        again = cohen_nutt_rewritings(
            case.query, [case.view], planner=warm
        )
        assert [r.sql() for r in again] == [r.sql() for r in first]
