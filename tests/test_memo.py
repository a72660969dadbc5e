"""The one memo type (`repro.memo.Memo`), its registry and its switch.

The per-memo wiring (keys, sharing, copies) is in
``tests/test_planner_caches.py``; the accounting every memo shares is
checked here once.
"""

import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro import Catalog, parse_query, table
from repro.blocks.terms import Column, Comparison, Op
from repro.constraints import closure as closure_mod
from repro.constraints import residual as residual_mod
from repro.constraints.closure import closure_of
from repro.constraints.residual import find_residual
from repro.core import canonical as canonical_mod
from repro.core.canonical import canonical_key
from repro.core.planner import cache_stats
from repro.memo import (
    MISSING,
    Memo,
    clear_shared,
    disabled,
    shared_memos,
)


class TestAccounting:
    def test_miss_then_hit(self):
        memo = Memo(4)
        assert memo.get("k") is MISSING
        memo.put("k", "v")
        assert memo.get("k") == "v"
        assert memo.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "bypasses": 0,
            "hit_rate": 0.5,
        }

    def test_default_replaces_the_sentinel(self):
        assert Memo(1).get("k", None) is None

    def test_none_is_a_cacheable_value(self):
        memo = Memo(4)
        memo.put("k", None)
        assert memo.get("k") is None
        assert (memo.hits, memo.misses) == (1, 0)

    def test_evicts_least_recently_used(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # touch: "b" is now the oldest
        memo.put("c", 3)
        assert memo.evictions == 1
        assert "b" not in memo
        assert [key for key, _ in memo.items()] == ["a", "c"]
        assert len(memo) == 2

    def test_contains_neither_counts_nor_touches(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert "a" in memo
        memo.put("c", 3)
        assert "a" not in memo
        assert (memo.hits, memo.misses) == (0, 0)

    def test_peek_neither_counts_nor_touches(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.peek("a") == 1
        assert memo.peek("x") is MISSING
        assert memo.peek("x", None) is None
        memo.put("c", 3)  # "a" was not touched, so it goes
        assert "a" not in memo
        assert (memo.hits, memo.misses) == (0, 0)
        with disabled():
            assert memo.peek("b") is MISSING
        assert memo.bypasses == 0

    def test_disabled_bypasses_lookup_and_store(self):
        memo = Memo(4)
        memo.put("k", "v")
        with disabled():
            assert memo.get("k") is MISSING
            memo.put("other", "w")
        assert memo.bypasses == 1
        assert (memo.hits, memo.misses) == (0, 0)
        assert "other" not in memo
        assert memo.get("k") == "v"  # the switch is restored on exit

    def test_inserts_is_monotone(self):
        memo = Memo(1)
        memo.put("a", 1)
        memo.put("a", 1)  # an overwrite still counts
        memo.put("b", 2)  # evicts "a"
        assert memo.inserts == 3
        memo.get("b")
        memo.clear()
        assert memo.inserts == 3
        assert len(memo) == 0
        assert memo.stats()["evictions"] == 0

    def test_touch_on_a_key_evicted_after_the_lookup(self):
        """The one tolerated race, made deterministic: the key vanishes
        between the dict lookup and the LRU touch."""

        class Evicting(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)  # "another thread" evicts it now
                return value

        memo = Memo(4)
        memo._entries = Evicting()
        memo.put("k", "v")
        assert memo.get("k") == "v"
        assert memo.hits == 1
        assert "k" not in memo


class TestRegistry:
    def test_the_process_wide_memos_are_registered(self):
        assert {"closure", "canonical_key", "residual"} <= set(shared_memos())
        assert shared_memos()["closure"] is closure_mod._closures

    def test_one_stats_shape_and_one_clear(self):
        a, b = Column("a"), Column("b")
        closure_of([Comparison(a, Op.LT, b)])
        shape = {"hits", "misses", "evictions", "bypasses", "hit_rate"}
        assert all(set(stats) == shape for stats in cache_stats().values())
        clear_shared()
        assert all(len(memo) == 0 for memo in shared_memos().values())
        assert all(
            stats["hits"] == stats["misses"] == 0
            for stats in cache_stats().values()
        )


def _atom_sets(n):
    cols = [Column(f"c{i}") for i in range(n + 1)]
    return [
        [
            Comparison(cols[i], Op.LT, cols[i + 1]),
            Comparison(cols[0], Op.LE, cols[i + 1]),
        ]
        for i in range(n)
    ]


class TestThreadStress:
    """Threads share the process-wide memos in ``mode="thread"`` batches.
    With a tiny cap every other lookup races an eviction; no lookup may
    raise. At the parent commit the check-then-act hit path died with
    ``KeyError`` from ``move_to_end`` within this budget."""

    SECONDS = 0.6
    THREADS = 4

    @pytest.fixture(autouse=True)
    def tiny_caps(self, monkeypatch):
        clear_shared()
        for module, name in (
            (closure_mod, "_closures"),
            (canonical_mod, "_keys"),
            (residual_mod, "_residuals"),
        ):
            monkeypatch.setattr(getattr(module, name), "cap", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)
        clear_shared()

    def _hammer(self, calls):
        errors = []
        deadline = time.monotonic() + self.SECONDS

        def work(offset):
            try:
                i = offset
                while time.monotonic() < deadline:
                    calls[i % len(calls)]()
                    i += 1
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(n,))
            for n in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_closure_of(self):
        sets = _atom_sets(8)
        self._hammer([lambda s=s: closure_of(s) for s in sets])
        assert closure_mod._closures.evictions > 0

    def test_canonical_key(self):
        catalog = Catalog([table("R", ["A", "B"])])
        blocks = [
            parse_query(f"SELECT A FROM R WHERE B > {i}", catalog)
            for i in range(8)
        ]
        self._hammer([lambda b=b: canonical_key(b) for b in blocks])
        assert canonical_mod._keys.evictions > 0

    def test_find_residual(self):
        sets = _atom_sets(8)
        allowed = [Column(f"c{i}") for i in range(9)]
        self._hammer(
            [lambda s=s: find_residual(s, s[:1], allowed) for s in sets]
        )
        assert residual_mod._residuals.evictions > 0
