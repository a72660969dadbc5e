"""The memo tier: epoch protocol, record and segment framing, capacity,
fallback."""

from __future__ import annotations

import os
import pickle
import random
import struct
import sys
import threading

import pytest

from repro.core.planner import RewritePlanner
from repro.serving.memo import (
    _HEADER,
    _MAGIC,
    MEMO_EXPORT_MAX,
    LocalMemoTier,
    MemoEntry,
    SharedMemoTier,
    create_memo_tier,
)
from repro.workloads.random_queries import random_scenario


def entry_of(tier, key):
    entry = tier.lookup(key)
    assert entry is not None
    return entry


class TestLocalMemoTier:
    def test_publish_lookup_roundtrip(self):
        tier = LocalMemoTier()
        assert tier.epoch() == 0
        assert tier.lookup(("k1",)) is None
        tier.publish(("k1",), ("V0", "V1"), [("m", 1)])
        entry = entry_of(tier, ("k1",))
        assert entry.view_names == ("V0", "V1")
        assert entry.memo == [("m", 1)]
        assert len(tier) == 1

    def test_invalidation_is_exact_and_always_bumps(self):
        tier = LocalMemoTier()
        tier.publish(("a",), ("V0",), [])
        tier.publish(("b",), ("V1",), [])
        tier.publish(("c",), ("V0", "V1"), [])
        evicted = tier.invalidate_views(["V0"])
        assert evicted == 2
        assert tier.lookup(("a",)) is None
        assert tier.lookup(("c",)) is None
        assert tier.lookup(("b",)) is not None
        assert tier.epoch() == 1
        # No matching entries: still a bump (cached planners revalidate).
        assert tier.invalidate_views(["V0"]) == 0
        assert tier.epoch() == 2

    def test_capacity_evicts_oldest_first(self):
        blob = list(range(2000))
        one = len(pickle.dumps({("k", 0): MemoEntry(0, ("V",), blob)},
                               pickle.HIGHEST_PROTOCOL))
        tier = LocalMemoTier(capacity=3 * one)
        for i in range(6):
            tier.publish(("k", i), ("V",), blob)
        kept = {k[1] for k in tier.keys()}
        assert len(tier) < 6
        assert 5 in kept  # newest survives
        assert 0 not in kept  # oldest evicted

    def test_name_is_none(self):
        assert LocalMemoTier().name is None

    def test_every_family_at_the_cap_survives_the_round_trip(self):
        # export_memos caps each family on its own; the tier must not
        # truncate the flat list again (that kept only the last family).
        sc = random_scenario(7)

        def full_planner():
            return RewritePlanner(sc.views, sc.catalog)

        planner = full_planner()
        planner.import_memos(
            [
                ("substitution", (("block", i), 0), [])
                for i in range(MEMO_EXPORT_MAX)
            ]
            + [
                ("cohen_nutt", ("query", i), ())
                for i in range(MEMO_EXPORT_MAX)
            ]
        )
        export = planner.export_memos(MEMO_EXPORT_MAX)
        assert len(export) == 2 * MEMO_EXPORT_MAX

        tier = LocalMemoTier()
        tier.publish(("k",), ("V0",), export)
        warm = full_planner()
        warm.import_memos(entry_of(tier, ("k",)).memo)
        assert len(warm.memo("substitution")) == MEMO_EXPORT_MAX
        assert len(warm.memo("cohen_nutt")) == MEMO_EXPORT_MAX


def framed_header(writer) -> tuple[int, int, int]:
    """The segment header's ``(generation, epoch, payload length)``,
    checked for the magic number."""
    magic, generation, epoch, length = _HEADER.unpack_from(writer._shm.buf, 0)
    assert magic == _MAGIC
    return generation, epoch, length


class TestSharedMemoTier:
    @pytest.mark.parametrize("capacity", [64, -5])
    def test_failed_construction_unlinks_the_segment(
        self, monkeypatch, capacity
    ):
        """Nothing holds a tier whose constructor raised, and
        create_memo_tier falls back to a local one: the segment must go
        with it. A negative capacity makes the first flush fail for real."""
        from multiprocessing import shared_memory

        if capacity > 0:
            def failing_flush(tier):
                raise RuntimeError("flush failed")

            monkeypatch.setattr(SharedMemoTier, "_flush", failing_flush)
        name = f"repro_memo_test_{os.getpid()}_{capacity + 5}"
        with pytest.raises((RuntimeError, struct.error)):
            SharedMemoTier(capacity=capacity, name=name)
        try:
            leaked = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        leaked.close()
        leaked.unlink()
        pytest.fail(f"segment {name} outlived the failed construction")

    def test_oversized_single_entry_still_frames(self):
        writer = SharedMemoTier(capacity=2048)
        try:
            writer.publish(("big",), ("V0",), list(range(5000)))
            # The oversized entry was dropped rather than overflowing
            # the segment; the frame is complete and empty.
            assert writer.lookup(("big",)) is None
            generation, _epoch, length = framed_header(writer)
            assert generation % 2 == 0 and length == writer._bytes == 0
        finally:
            writer.close()
            writer.unlink()


@pytest.mark.parametrize("seed", range(5))
def test_running_byte_total_matches_the_framed_payload(seed):
    """Publish / overwrite / invalidate / clear in random order: the
    writer's running total is the framed payload length and stays
    within capacity, and each frame is complete and carries the epoch."""
    rng = random.Random(seed)
    views = [f"V{i}" for i in range(4)]
    writer = SharedMemoTier(capacity=8 * 1024)
    try:
        for _step in range(120):
            op = rng.random()
            if op < 0.70:
                # A small key space makes most publishes overwrites; the
                # sizes make capacity eviction and oversized drops occur.
                writer.publish(
                    ("k", rng.randrange(12)),
                    rng.sample(views, rng.randint(1, 2)),
                    list(range(rng.choice((10, 200, 900, 3000)))),
                )
            elif op < 0.95:
                writer.invalidate_views([rng.choice(views)])
            else:
                writer.clear()

            generation, epoch, framed = framed_header(writer)
            assert writer._bytes == framed
            assert writer._bytes == sum(
                len(record) for _entry, record in writer._entries.values()
            )
            assert writer._bytes <= writer.capacity
            assert generation % 2 == 0 and epoch == writer.epoch()
    finally:
        writer.close()
        writer.unlink()


class _PlannerModel:
    """One fingerprint's planner memo, as the tier sees it: entries
    ``(family, key, value)`` with unhashable values, an LRU cap (older
    entries fall out) and a per-family export cap (a touched entry
    re-enters the exported window and pushes another out)."""

    CAP = 14
    EXPORT_MAX = 5

    def __init__(self, rng: random.Random, name: int):
        self.rng = rng
        self.name = name
        self.memo: dict = {}
        self.next = 0

    def step(self) -> list:
        rng = self.rng
        for _ in range(rng.randint(0, 3)):
            family = rng.choice(("substitution", "cohen_nutt"))
            self.memo[family, ("block", self.name, self.next)] = [self.next]
            self.next += 1
        if self.memo and rng.random() < 0.3:
            touched = rng.choice(list(self.memo))
            self.memo[touched] = self.memo.pop(touched)
        while len(self.memo) > self.CAP:
            del self.memo[next(iter(self.memo))]
        export = []
        for family in ("substitution", "cohen_nutt"):
            items = [(f, k, v) for (f, k), v in self.memo.items() if f == family]
            export += items[-self.EXPORT_MAX:]
        return export


def _multiset(memo) -> list:
    return sorted(map(repr, memo))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_growing_exports_evictions_and_invalidations(seed, shared):
    """Random sequences of growing exports (appended as chunks, or
    rebuilt when the export dropped entries), capacity evictions and
    invalidations. After every step each held fingerprint's lookup is
    its last export as a multiset, and the running byte total is the
    framed payload."""
    rng = random.Random(seed)
    views = [f"V{i}" for i in range(3)]
    planners = [_PlannerModel(rng, i) for i in range(5)]
    last: dict = {}
    writer = (SharedMemoTier if shared else LocalMemoTier)(capacity=2048)
    try:
        for _step in range(150):
            if rng.random() < 0.85:
                planner = rng.choice(planners)
                key = ("fp", planner.name)
                export = planner.step()
                writer.publish(key, (views[planner.name % 3],), export)
                last[key] = export
            else:
                writer.invalidate_views([rng.choice(views)])

            assert writer._bytes == sum(
                len(record) for _entry, record in writer._entries.values()
            )
            if shared:
                assert writer._bytes == framed_header(writer)[2]
            assert writer._bytes <= writer.capacity or len(writer) == 1
            for key in writer.keys():
                entry = writer.lookup(key)
                assert _multiset(entry.memo) == _multiset(last[key])
    finally:
        writer.close()
        writer.unlink()


def test_a_growing_export_pickles_only_its_new_entries():
    """A publish that only adds entries appends one chunk and keeps the
    record's earlier chunks as they were; one that drops an entry
    rebuilds the record as one chunk."""
    tier = LocalMemoTier()
    first = [("substitution", ("b", i), [i]) for i in range(3)]
    tier.publish(("k",), ("V0",), first)
    chunks = tier._entries[("k",)][1].chunks
    grown = first[1:] + [first[0], ("substitution", ("b", 3), [3])]
    tier.publish(("k",), ("V0",), grown)
    record = tier._entries[("k",)][1]
    assert record.chunks[:-1] == chunks and len(record.chunks) == 2
    assert pickle.loads(record.chunks[-1][4:]) == [grown[-1]]
    tier.publish(("k",), ("V0",), grown[1:])
    assert len(tier._entries[("k",)][1].chunks) == 1
    assert tier.lookup(("k",)).memo == grown[1:]


def test_writer_threads_keep_the_byte_total_and_the_frame_consistent():
    """The daemon publishes on its event-loop thread while an update
    invalidates on an executor thread: both are the one writer, and
    neither may lose an update to the running total or interleave a
    seqlock frame."""
    writer = SharedMemoTier(capacity=64 * 1024)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        failures = []

        def publisher(worker: int) -> None:
            try:
                for i in range(3000):
                    writer.publish(
                        ("k", worker, i % 7),
                        (f"V{i % 3}",),
                        list(range(50 + 10 * (i % 5))),
                    )
            except Exception as error:  # noqa: BLE001 — reported below
                failures.append(error)

        def invalidator() -> None:
            try:
                for i in range(3000):
                    writer.invalidate_views([f"V{i % 3}"])
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [
            threading.Thread(target=publisher, args=(n,)) for n in range(3)
        ] + [threading.Thread(target=invalidator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert writer._bytes == sum(
            len(record) for _entry, record in writer._entries.values()
        )
        generation, epoch, framed = framed_header(writer)
        assert writer._bytes == framed
        assert generation % 2 == 0 and epoch == writer.epoch()
    finally:
        sys.setswitchinterval(interval)
        writer.close()
        writer.unlink()


def test_create_memo_tier_prefers_shared():
    tier = create_memo_tier(capacity=64 * 1024)
    try:
        assert isinstance(tier, (SharedMemoTier, LocalMemoTier))
        tier.publish(("k",), ("V0",), [])
        assert tier.lookup(("k",)) is not None
    finally:
        tier.close()
        tier.unlink()


def test_create_memo_tier_local_fallback():
    tier = create_memo_tier(capacity=64 * 1024, shared=False)
    assert isinstance(tier, LocalMemoTier)
    assert not isinstance(tier, SharedMemoTier)
