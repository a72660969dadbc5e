"""The cross-worker shared memo tier of the serving daemon.

The planner's substitution memo is a pure function of the (views,
catalog schemas, semantics) fingerprint, and exporting/importing it
(:meth:`repro.core.planner.RewritePlanner.export_memos`) lets one
planner warm-start another. The serving daemon keeps those exports
*persistent across requests* and *shared across process workers* in one
``multiprocessing.shared_memory`` segment:

single writer
    only the daemon master publishes; workers never write. This removes
    every write/write race by construction.

seqlock framing
    the segment starts with a fixed header ``(magic, generation, epoch,
    payload_len)``. The writer increments ``generation`` to an odd value
    before touching the payload and to the next even value after; a
    reader retries whenever it sees an odd generation or the generation
    changed under it. Readers therefore never observe a torn payload,
    and the common case (no concurrent publish) costs one extra header
    read.

epoch stamping
    ``epoch`` increments on every invalidation. Workers cache planners
    locally keyed by fingerprint and remember the epoch they validated
    against; a cheap header read tells them whether revalidation (a full
    payload lookup) is needed. An entry evicted by invalidation simply
    stops being found — the reader falls back to cold planning, never to
    a stale memo.

record framing
    the payload is a sequence of length-prefixed records, one per
    fingerprint: ``(key_len, entry_len)``, the pickled key, then the
    entry as length-prefixed pickles: a head ``(epoch, view_names)``
    and the memo *chunks*, each a pickled list of memo entries. A
    fingerprint's chunks are append-only: a publish pickles only the
    entries its record does not hold yet, as one new chunk (so a query
    block the new entries share is pickled once), and rebuilds the
    record as one chunk only when the export dropped entries the record
    holds (a memo past its cap). The writer keeps the records and a
    running byte total, so capacity accounting, eviction and
    invalidation never re-pickle, and framing the segment is a join of
    stored bytes; the chunks leave with their record. A reader's lookup
    unpickles the keys and only the one entry it asked for, its memo
    being the chunks concatenated.

Capacity overflow evicts oldest-published entries first. The daemon
publishes a fingerprint only when a planner for it gained a memo entry
(:class:`repro.serving.worker.PlannerCache` returns an empty export
otherwise), so an entry evicted by capacity stays out until some planner
for that fingerprint is rebuilt or learns something new; until then
readers of it plan cold. When ``multiprocessing.shared_memory`` is
unavailable (or creation fails, e.g. no ``/dev/shm``) or nothing could
attach, :class:`LocalMemoTier` provides the same interface over a
process-local dict so serial serving and the test-suite keep working
everywhere.
"""

from __future__ import annotations

import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from ..obs.metrics import counter, gauge

_T = TypeVar("_T")

#: Header: magic, generation (odd = publish in progress), epoch,
#: payload byte length.
_HEADER = struct.Struct("<QQQQ")
_MAGIC = 0x5250_4D31  # "RPM1"

#: Default segment capacity. Memo entries are small (a few KB each for
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
    "Shared memo tier lookups, by outcome.",
    ("outcome",),
)
EVICTIONS = counter(
    "repro_serving_shared_memo_evictions_total",
    "Entries evicted from the shared memo tier, by reason.",
    ("reason",),
)
ENTRIES = gauge(
    "repro_serving_shared_memo_entries",
    "Entries currently published in the shared memo tier.",
)
EPOCH = gauge(
    "repro_serving_epoch",
    "Current invalidation epoch of the shared memo tier.",
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


def _load_entry(raw: memoryview) -> MemoEntry:
    """The :class:`MemoEntry` of a framed entry: its head, and its
    chunks concatenated."""
    pieces = []
    offset = 0
    while offset < len(raw):
        (length,) = _PIECE.unpack_from(raw, offset)
        offset += _PIECE.size
        pieces.append(pickle.loads(raw[offset:offset + length]))
        offset += length
    (epoch, view_names), *chunks = pieces
    return MemoEntry(epoch, view_names, [e for chunk in chunks for e in chunk])


def _iter_records(raw: bytes) -> Iterator[tuple[tuple, memoryview]]:
    """The ``(key, pickled entry)`` pairs of a framed payload.

    Keys are unpickled; entries stay raw for the caller that wants one.
    """
    view = memoryview(raw)
    offset = 0
    while offset < len(raw):
        key_len, entry_len = _RECORD.unpack_from(raw, offset)
        offset += _RECORD.size
        key = pickle.loads(view[offset:offset + key_len])
        offset += key_len
        yield key, view[offset:offset + entry_len]
        offset += entry_len


class LocalMemoTier:
    """The memo tier without shared memory: one process, same protocol.

    Serial daemons (``workers=0``) and tests use this; the interface —
    ``epoch()``, ``lookup()``, ``publish()``, ``invalidate_views()`` —
    is identical to :class:`SharedMemoTier`, so the worker-side planner
    cache logic is tier-agnostic.
    """

    #: Shared-memory tiers have a name workers attach by; local ones
    #: don't, and the daemon skips shipping one to workers.
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

        The epoch bumps even when nothing was evicted: readers with
        locally cached planners for a key published under the old epoch
        must revalidate regardless (their entry may have been evicted by
        an earlier invalidation they never observed).
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

    def close(self) -> None:  # interface parity with SharedMemoTier
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
    """The memo tier over one ``multiprocessing.shared_memory`` segment.

    Construct with ``create=True`` in the daemon master (the single
    writer); workers attach read-only via :meth:`attach`. The writer
    keeps the authoritative records in process memory, so publishes are
    a frame of known bytes, never a read-modify-write of the segment.
    """

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
        self._writer = True
        try:
            self._flush()
        except BaseException:
            # The caller never gets this tier to close, and
            # create_memo_tier falls back to a local one: the segment
            # must not outlive the failed construction.
            self.close()
            self.unlink()
            raise

    @classmethod
    def attach(cls, name: str) -> "SharedMemoTier":
        """A read-only view of an existing segment (worker side)."""
        from multiprocessing import shared_memory

        tier = cls.__new__(cls)
        LocalMemoTier.__init__(tier)
        try:
            # track=False (3.13+) keeps the worker's resource tracker
            # from unlinking the master's segment at worker exit.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            import multiprocessing

            shm = shared_memory.SharedMemory(name=name)
            # Pre-3.13 there is no track=False. Under the spawn start
            # method each worker runs its own resource tracker, which
            # would unlink the master's live segment at worker exit —
            # unregister to stop that. Under fork(server) the tracker
            # process is shared and its cache is a set: the attach
            # register above was a no-op, and unregistering here would
            # strip the *master's* registration (tracker KeyError noise
            # at exit), so leave it alone.
            if multiprocessing.get_start_method(allow_none=True) == "spawn":
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(
                        getattr(shm, "_name", "/" + name), "shared_memory"
                    )
                except Exception:
                    pass
        tier._shm = shm
        tier.name = name
        tier._generation = 0
        tier._writer = False
        tier.capacity = shm.size - _HEADER.size
        return tier

    # Reader protocol ---------------------------------------------------

    def _read_header(self) -> tuple[int, int, int, int]:
        return _HEADER.unpack_from(self._shm.buf, 0)

    def epoch(self) -> int:
        if self._writer:
            return self._epoch
        magic, _gen, epoch, _length = self._read_header()
        return epoch if magic == _MAGIC else 0

    def _read(self, parse: Callable[[bytes], _T]) -> _T:
        """``parse`` of a consistent payload snapshot, via the seqlock."""
        for _attempt in range(1000):
            magic, gen1, _epoch, length = self._read_header()
            if magic != _MAGIC or gen1 % 2 == 1:
                continue
            raw = bytes(
                self._shm.buf[_HEADER.size:_HEADER.size + length]
            )
            _magic, gen2, _epoch, _length = self._read_header()
            if gen1 == gen2:
                try:
                    return parse(raw)
                except Exception:
                    continue  # torn write slipped through; retry
        return parse(b"")  # writer wedged mid-publish: act cold

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        if self._writer:
            return super().lookup(key)

        def find(raw: bytes) -> Optional[MemoEntry]:
            for candidate, pickled in _iter_records(raw):
                if candidate == key:
                    return _load_entry(pickled)
            return None

        entry = self._read(find)
        LOOKUPS.labels("miss" if entry is None else "hit").inc()
        return entry

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self):
        if self._writer:
            return super().keys()
        return self._read(
            lambda raw: [key for key, _pickled in _iter_records(raw)]
        )

    # Writer protocol ---------------------------------------------------

    def _flush(self) -> None:
        if not getattr(self, "_writer", False):
            raise RuntimeError("read-only attachment cannot publish")
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

    # Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        if self._writer:
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
