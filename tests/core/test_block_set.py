"""BlockSet: deduplication up to isomorphism, keyed only on collision."""

import random

import pytest

from repro.blocks.naming import FreshNames, base_of
from repro.blocks.normalize import parse_query
from repro.catalog.schema import Catalog, table
from repro.core import canonical
from repro.core.canonical import BlockSet, canonical_key
from repro.core.multiview import all_rewritings_naive
from repro.core.rewriter import search
from repro.memo import clear_shared
from repro.workloads import telephony
from repro.workloads.random_queries import random_scenario


def eager_verdicts(blocks):
    seen, out = set(), []
    for block in blocks:
        key = canonical_key(block)
        out.append(key not in seen)
        seen.add(key)
    return out


def block_set_verdicts(blocks):
    seen = BlockSet()
    return [seen.add(block) for block in blocks]


def isomorphic_copy(block, rng):
    """``block`` with fresh column names and a shuffled FROM."""
    namer = FreshNames()
    renamed = block.substitute(
        {col: namer.column("z" + base_of(col)) for col in block.cols()}
    )
    order = list(range(len(renamed.from_)))
    rng.shuffle(order)
    return renamed.with_(from_=tuple(renamed.from_[i] for i in order))


@pytest.mark.parametrize("chunk", range(8))
def test_same_verdicts_as_eager_keys_on_random_scenarios(chunk):
    """240 seeds: the query, every rewriting the reference search finds,
    and an isomorphic copy of each, in a shuffled order."""
    collisions = 0
    for seed in range(chunk * 30, chunk * 30 + 30):
        scenario = random_scenario(seed)
        rng = random.Random(seed)
        found = all_rewritings_naive(
            scenario.query, scenario.views, scenario.catalog
        )
        blocks = [scenario.query] + [rw.query for rw in found]
        blocks += [isomorphic_copy(block, rng) for block in blocks]
        rng.shuffle(blocks)
        expected = eager_verdicts(blocks)
        assert block_set_verdicts(blocks) == expected, seed
        collisions += expected.count(False)
    assert collisions >= 30


@pytest.fixture
def rs_catalog():
    return Catalog(
        [
            table("R", ["A", "B"], key=["A"]),
            table("S", ["C", "D"], key=["C"]),
        ]
    )


@pytest.mark.parametrize(
    "first, second, isomorphic",
    [
        (
            "SELECT r.A, SUM(s.D) FROM R r, S s WHERE r.B = s.C GROUP BY r.A",
            "SELECT x.A, SUM(y.D) FROM S y, R x WHERE y.C = x.B GROUP BY x.A",
            True,
        ),
        (
            "SELECT r1.A FROM R r1, R r2 WHERE r1.B = r2.A",
            "SELECT q.A FROM R p, R q WHERE q.B = p.A",
            True,
        ),
        (
            "SELECT r1.A FROM R r1, R r2 WHERE r1.B = r2.A",
            "SELECT r1.A FROM R r1, R r2 WHERE r2.B = r1.A",
            False,
        ),
        (
            "SELECT r1.A FROM R r1, R r2 WHERE r1.B = r2.A",
            "SELECT r1.A FROM R r1, R r2 WHERE r1.B = r1.A",
            False,
        ),
        ("SELECT A FROM R", "SELECT C FROM S", False),
    ],
)
def test_hand_made_pairs(rs_catalog, first, second, isomorphic):
    blocks = [parse_query(sql, rs_catalog) for sql in (first, second)]
    assert eager_verdicts(blocks) == [True, not isomorphic]
    assert block_set_verdicts(blocks) == [True, not isomorphic]
    assert block_set_verdicts(blocks + blocks[::-1]) == eager_verdicts(
        blocks + blocks[::-1]
    )


def test_lone_blocks_are_never_keyed(rs_catalog, monkeypatch):
    calls = []
    monkeypatch.setattr(canonical, "canonical_key", calls.append)
    seen = BlockSet()
    assert seen.add(parse_query("SELECT A FROM R", rs_catalog))
    assert seen.add(parse_query("SELECT C FROM S", rs_catalog))
    assert seen.add(parse_query("SELECT r.A FROM R r, S s", rs_catalog))
    assert calls == []


def test_example_1_1_search_computes_no_canonical_key(monkeypatch):
    """The query and its one rewriting over V1 share no FROM names, so
    Theorem 3.2's dedup has nothing to tell apart."""
    workload = telephony.generate(n_calls=200)
    sql = telephony.QUERY_SQL.format(threshold=5000)
    clear_shared()
    computed = []
    uncached = canonical._canonical_key_uncached
    monkeypatch.setattr(
        canonical,
        "_canonical_key_uncached",
        lambda block: computed.append(block) or uncached(block),
    )
    result = search(sql, [workload.view], workload.catalog)
    assert len(result.rewritings) == 1
    assert computed == []
