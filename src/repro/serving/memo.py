"""The serving daemon's memo tier: planner memos kept across requests.

The planner's substitution memo is a pure function of the (views,
catalog schemas, semantics) fingerprint, and exporting/importing it
(:meth:`repro.core.planner.RewritePlanner.export_memos`) lets one
planner warm-start another. The daemon keeps those exports *persistent
across requests* in a :class:`LocalMemoTier`, so a planner that was
evicted from :class:`repro.serving.worker.PlannerCache` or dropped by
an invalidation is rebuilt warm:

epoch stamping
    ``epoch`` increments on every invalidation. The planner cache keeps
    planners keyed by fingerprint and remembers the epoch they were
    validated against; an unchanged epoch means no lookup is needed. An
    entry evicted by invalidation simply stops being found — the cache
    falls back to cold planning, never to a stale memo.

record framing
    each fingerprint's entry is held as a framed record:
    ``(key_len, entry_len)``, the pickled key, then the entry as
    length-prefixed pickles: a head ``(epoch, view_names)`` and the
    memo *chunks*, each a pickled list of memo entries. A
    fingerprint's chunks are append-only: a publish pickles only the
    entries its record does not hold yet, as one new chunk (so a query
    block the new entries share is pickled once), and rebuilds the
    record as one chunk only when the export dropped entries the record
    holds (a memo past its cap). The tier keeps a running byte total of
    the records, so capacity accounting, eviction and invalidation
    never re-pickle.

Capacity overflow evicts oldest-published entries first. The daemon
publishes a fingerprint only when a planner for it gained a memo entry
(:class:`repro.serving.worker.PlannerCache` returns an empty export
otherwise), so an entry evicted by capacity stays out until some planner
for that fingerprint is rebuilt or learns something new; until then
that fingerprint plans cold.

:class:`SharedMemoTier` writes the same records into one
``multiprocessing.shared_memory`` segment behind a seqlock header
``(magic, generation, epoch, payload_len)``: ``generation`` is odd
while the payload is being rewritten. The daemon does not use it; the
end-to-end benchmark's in-process replay (``benchmarks/e2e``) does.
"""

from __future__ import annotations

import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..obs.metrics import counter, gauge


#: Header: magic, generation (odd = publish in progress), epoch,
#: payload byte length.
_HEADER = struct.Struct("<QQQQ")
_MAGIC = 0x5250_4D31  # "RPM1"

#: Default tier capacity in bytes. Memo entries are small (a few KB each for
#: the random workloads); 4 MiB holds thousands.
DEFAULT_CAPACITY = 4 * 1024 * 1024

#: Record prefix: pickled-key byte length, entry byte length.
_RECORD = struct.Struct("<II")
#: Prefix of each pickle inside an entry: its byte length.
_PIECE = struct.Struct("<I")

#: Cap on memo entries exported per memo family and fingerprint.
#: Applied by the exporter (``RewritePlanner.export_memos``), not by the tier.
MEMO_EXPORT_MAX = 2048


@dataclass(frozen=True)
class MemoEntry:
    """One fingerprint's published planner memo.

    ``epoch`` is the tier epoch at publish time (diagnostics only — the
    validity signal is *presence*: invalidation removes the entry).
    ``view_names`` is what invalidation matches against.
    """

    epoch: int
    view_names: tuple[str, ...]
    memo: list = field(default_factory=list)


LOOKUPS = counter(
    "repro_serving_shared_memo_lookups_total",
    "Memo tier lookups, by outcome.",
    ("outcome",),
)
EVICTIONS = counter(
    "repro_serving_shared_memo_evictions_total",
    "Entries evicted from the memo tier, by reason.",
    ("reason",),
)
ENTRIES = gauge(
    "repro_serving_shared_memo_entries",
    "Entries currently published in the memo tier.",
)
EPOCH = gauge(
    "repro_serving_epoch",
    "Current invalidation epoch of the memo tier.",
)


def _piece(obj) -> bytes:
    """``obj`` pickled, behind its length prefix."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _PIECE.pack(len(data)) + data


def _entry_id(item):
    """What identifies a memo entry across exports: the ``(family,
    key)`` of an ``export_memos`` triple. An export lists each once."""
    return item[:2] if isinstance(item, tuple) else item


class _Record:
    """One fingerprint's framed record, as pickled pieces: the key, the
    entry head, then the memo chunks. ``len()`` is its framed size."""

    __slots__ = ("key", "head", "chunks", "size")

    def __init__(self, key: bytes, head: bytes, chunks: tuple[bytes, ...]):
        self.key = key
        self.head = head
        self.chunks = chunks
        self.size = (
            _RECORD.size + len(key) + len(head) + sum(map(len, chunks))
        )

    def __len__(self) -> int:
        return self.size

    def frame(self) -> Iterator[bytes]:
        yield _RECORD.pack(
            len(self.key), self.size - _RECORD.size - len(self.key)
        )
        yield self.key
        yield self.head
        yield from self.chunks


class LocalMemoTier:
    """The memo tier of one process: ``epoch()``, ``lookup()``,
    ``publish()`` and ``invalidate_views()``, and the framed records."""

    #: Only a shared-memory tier has a segment name.
    name: Optional[str] = None

    #: Capacity eviction stops here: a process-local dict has no hard
    #: byte limit, so the newest entry stays even when oversized.
    _min_entries = 1

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        #: fingerprint -> (entry, its framed record), oldest-published
        #: first. Each memo entry is pickled once, into one chunk.
        self._entries: OrderedDict[tuple, tuple[MemoEntry, _Record]] = (
            OrderedDict()
        )
        #: Running byte total of the records (the framed payload size).
        self._bytes = 0
        self._epoch = 0
        #: The single writer may be several threads of one process (the
        #: daemon publishes on its event loop, updates invalidate on an
        #: executor thread); mutations and their frame are serialized.
        self._write_lock = threading.Lock()

    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return list(self._entries.keys())

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        found = self._entries.get(key)
        LOOKUPS.labels("miss" if found is None else "hit").inc()
        return None if found is None else found[0]

    def publish(
        self, key: tuple, view_names: Sequence[str], memo: Iterable
    ) -> MemoEntry:
        """Publish ``memo`` (an already-capped ``export_memos`` list).

        The entry's memo is the record's chunks concatenated: the
        entries already held, then the ones this export added.
        """
        memo = list(memo)
        view_names = tuple(view_names)
        with self._write_lock:
            found = self._entries.get(key)
            held = () if found is None else found[0].memo
            known = {_entry_id(item) for item in held}
            fresh = [item for item in memo if _entry_id(item) not in known]
            if found is not None and len(memo) - len(fresh) == len(known):
                entries = held + fresh
                chunks = found[1].chunks
                key_bytes = found[1].key
            else:  # new, or the export dropped entries: one chunk
                entries, fresh, chunks = memo, memo, ()
                key_bytes = pickle.dumps(key, pickle.HIGHEST_PROTOCOL)
            if fresh:
                chunks += (_piece(fresh),)
            entry = MemoEntry(self._epoch, view_names, entries)
            record = _Record(
                key_bytes, _piece((entry.epoch, view_names)), chunks
            )
            self._remove(key)
            self._entries[key] = (entry, record)
            self._bytes += len(record)
            self._enforce_capacity()
            self._flush()
            ENTRIES.set(len(self._entries))
            EPOCH.set(self._epoch)
        return entry

    def invalidate_views(self, names: Iterable[str]) -> int:
        """Evict every entry touching ``names``; always bump the epoch.

        The epoch bumps even when nothing was evicted: a planner cached
        for a key published under the old epoch must be revalidated
        regardless (its entry may have been evicted by an earlier
        invalidation).
        """
        targets = set(names)
        with self._write_lock:
            victims = [
                key
                for key, (entry, _record) in self._entries.items()
                if targets.intersection(entry.view_names)
            ]
            for key in victims:
                self._remove(key)
            self._epoch += 1
            self._flush()
            if victims:
                EVICTIONS.labels("invalidation").inc(len(victims))
            ENTRIES.set(len(self._entries))
            EPOCH.set(self._epoch)
        return len(victims)

    def clear(self) -> None:
        with self._write_lock:
            self._entries.clear()
            self._bytes = 0
            self._epoch += 1
            self._flush()

    def close(self) -> None:  # a shared-memory tier releases its segment
        pass

    def unlink(self) -> None:
        pass

    # ------------------------------------------------------------------

    def _remove(self, key: tuple) -> None:
        found = self._entries.pop(key, None)
        if found is not None:
            self._bytes -= len(found[1])

    def _enforce_capacity(self) -> None:
        """Evict oldest-published entries until the records fit."""
        evicted = 0
        while (
            len(self._entries) > self._min_entries
            and self._bytes > self.capacity
        ):
            self._remove(next(iter(self._entries)))
            evicted += 1
        if evicted:
            EVICTIONS.labels("capacity").inc(evicted)

    def _flush(self) -> None:  # shared-memory subclass hook
        pass


class SharedMemoTier(LocalMemoTier):
    """The memo tier, framed into one ``multiprocessing.shared_memory``
    segment on every change. The records stay in process memory, so a
    publish is a frame of known bytes, never a read-modify-write of the
    segment."""

    #: The segment's size is a hard limit: an entry that is oversized on
    #: its own is dropped too, an empty tier being valid.
    _min_entries = 0

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        name: Optional[str] = None,
    ):
        from multiprocessing import shared_memory

        super().__init__(capacity)
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER.size + capacity
        )
        self.name = self._shm.name
        self._generation = 0
        try:
            self._flush()
        except BaseException:
            # The caller never gets this tier to close, and
            # create_memo_tier falls back to a local one: the segment
            # must not outlive the failed construction.
            self.close()
            self.unlink()
            raise

    def _flush(self) -> None:
        payload = b"".join(
            piece
            for _entry, record in self._entries.values()
            for piece in record.frame()
        )
        # Seqlock: odd generation while the payload is inconsistent.
        self._generation += 1
        _HEADER.pack_into(
            self._shm.buf, 0,
            _MAGIC, self._generation, self._epoch, 0,
        )
        self._shm.buf[_HEADER.size:_HEADER.size + len(payload)] = payload
        self._generation += 1
        _HEADER.pack_into(
            self._shm.buf, 0,
            _MAGIC, self._generation, self._epoch, len(payload),
        )

    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except Exception:
            pass


def create_memo_tier(
    capacity: int = DEFAULT_CAPACITY, shared: bool = True
):
    """The best available tier: shared memory, or a local fallback."""
    if shared:
        try:
            return SharedMemoTier(capacity=capacity)
        except Exception:
            pass  # no /dev/shm, permissions, platform — degrade local
    return LocalMemoTier(capacity=capacity)
