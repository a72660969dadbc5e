"""Pickling: every wire type must cross the process-pool boundary.

The sharpest test here is the cached-hash one: ``QueryBlock`` memoizes
``hash()`` into ``_cached_hash``, and str hashes are salted per process
(PYTHONHASHSEED). A pickled stale hash would silently corrupt every dict
keyed by blocks in a pool worker — most importantly the planner's
substitution memo — so ``__getstate__`` must drop it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro import api
from repro.catalog.schema import Catalog, TableSchema
from repro.core.planner import RewritePlanner
from repro.core.result import Rewriting
from repro.core.rewriter import RankedRewriting
from repro.obs.budget import SearchBudget
from repro.service import (
    BatchResult,
    RewriteRequest,
    RewriteResponse,
    rewrite_batch,
)
from repro.workloads.random_queries import random_scenario


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def scenario():
    return random_scenario(5)


class TestCachedHash:
    def test_getstate_drops_cached_hash(self, scenario):
        block = scenario.query
        hash(block)  # populate the memo
        assert "_cached_hash" in block.__dict__
        state = block.__getstate__()
        assert "_cached_hash" not in state

    def test_roundtrip_equal_and_rehashable(self, scenario):
        block = scenario.query
        hash(block)
        clone = roundtrip(block)
        assert "_cached_hash" not in clone.__dict__
        assert clone == block
        assert hash(clone) == hash(block)  # recomputed, same process

    def test_block_keyed_dict_survives_hash_reseeding(self, scenario):
        # The end-to-end property: a dict keyed by blocks, pickled here,
        # must still resolve lookups in an interpreter with a different
        # hash seed. With a stale _cached_hash this fails.
        block = scenario.query
        hash(block)
        payload = pickle.dumps({block: "found"})
        probe = textwrap.dedent(
            """
            import pickle, sys
            table = pickle.loads(sys.stdin.buffer.read())
            [block] = table
            clone = pickle.loads(pickle.dumps(block))
            assert table[clone] == "found", "lookup missed"
            print("ok")
            """
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", probe],
            input=payload,
            capture_output=True,
            env=env,
            check=False,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "ok"


class TestPlannerMemoTransport:
    def test_export_import_roundtrip_through_pickle(self, scenario):
        planner = RewritePlanner(
            list(scenario.views), scenario.catalog, use_set_semantics=True
        )
        from repro.core.multiview import all_rewritings

        all_rewritings(
            scenario.query, list(scenario.views), catalog=scenario.catalog,
            use_set_semantics=True, planner=planner,
        )
        export = planner.export_memos()
        assert export, "search should have populated the memo"
        shipped = roundtrip(export)
        fresh = RewritePlanner(
            list(scenario.views), scenario.catalog, use_set_semantics=True
        )
        adopted = fresh.import_memos(shipped)
        assert adopted == len(export)
        hits_before = fresh.stats.substitution_hits
        all_rewritings(
            scenario.query, list(scenario.views), catalog=scenario.catalog,
            use_set_semantics=True, planner=fresh,
        )
        assert fresh.stats.substitution_hits > hits_before


def public_instances(scenario):
    """One representative instance per public wire dataclass."""
    response = api.rewrite(
        scenario.query, scenario.catalog, budget=SearchBudget(deadline=5.0)
    )
    request = RewriteRequest(
        query=scenario.query,
        catalog=scenario.catalog,
        views=tuple(scenario.views),
        budget=SearchBudget(max_mappings=100),
        request_id="r1",
    )
    batch = rewrite_batch([request], mode="serial")
    return [
        ("SearchBudget", SearchBudget(deadline=1.0, max_mappings=5)),
        ("QueryBlock", scenario.query),
        ("ViewDef", scenario.views[0]),
        ("TableSchema", next(iter(scenario.catalog.tables.values()))),
        ("Rewriting", response.rewritings[0]),
        ("RankedRewriting", response.ranked[0]),
        ("RewriteRequest", request),
        ("RewriteResponse", response),
        ("BatchResult", batch),
    ]


def test_every_public_dataclass_roundtrips(scenario):
    for name, obj in public_instances(scenario):
        clone = roundtrip(obj)
        assert type(clone) is type(obj), name
        if name in ("BatchResult",):
            assert clone.responses == obj.responses, name
        elif name in ("RewriteRequest",):
            # Catalog has no __eq__; compare the value fingerprint.
            from repro.service.batcher import request_group_key

            assert request_group_key(clone) == request_group_key(obj), name
            assert clone.query == obj.query
        elif name in ("RewriteResponse",):
            assert clone.rewritings == obj.rewritings, name
            assert clone.to_json_dict() == obj.to_json_dict(), name
        else:
            assert clone == obj, name


def test_catalog_roundtrips_by_fingerprint(scenario):
    from repro.service.batcher import catalog_fingerprint

    clone = roundtrip(scenario.catalog)
    assert catalog_fingerprint(clone) == catalog_fingerprint(scenario.catalog)
