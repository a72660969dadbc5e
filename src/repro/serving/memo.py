"""The cross-worker shared memo tier of the serving daemon.

The planner's substitution memo is a pure function of the (views,
catalog schemas, semantics) fingerprint, and exporting/importing it
(:meth:`repro.core.planner.RewritePlanner.export_memos`) is how the batch
service warm-starts workers. The serving daemon keeps those exports
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

The payload is one pickled dict ``{fingerprint: MemoEntry}``. The writer
keeps the authoritative dict in process memory and rewrites the whole
payload on publish; capacity overflow evicts oldest-published entries
first. When ``multiprocessing.shared_memory`` is unavailable (or
creation fails, e.g. no ``/dev/shm``), :class:`LocalMemoTier` provides
the same interface over a process-local dict so serial serving and the
test-suite keep working everywhere.
"""

from __future__ import annotations

import pickle
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..obs.metrics import current_metrics

#: Header: magic, generation (odd = publish in progress), epoch,
#: payload byte length.
_HEADER = struct.Struct("<QQQQ")
_MAGIC = 0x5250_4D31  # "RPM1"

#: Default segment capacity. Memo entries are small (a few KB each for
#: the random workloads); 4 MiB holds thousands.
DEFAULT_CAPACITY = 4 * 1024 * 1024

#: Cap on memo entries exported per fingerprint on publish, mirroring
#: the batch service's MEMO_EXPORT_MAX discipline.
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


def _observe_lookup(outcome: str) -> None:
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_serving_shared_memo_lookups_total",
            "Shared memo tier lookups, by outcome.",
            ("outcome",),
        ).labels(outcome).inc()


def _observe_eviction(reason: str, count: int) -> None:
    if count <= 0:
        return
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_serving_shared_memo_evictions_total",
            "Entries evicted from the shared memo tier, by reason.",
            ("reason",),
        ).labels(reason).inc(count)


def _observe_size(entries: int, epoch: int) -> None:
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge(
            "repro_serving_shared_memo_entries",
            "Entries currently published in the shared memo tier.",
        ).set(entries)
        metrics.gauge(
            "repro_serving_epoch",
            "Current invalidation epoch of the shared memo tier.",
        ).set(epoch)


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

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, MemoEntry] = OrderedDict()
        self._epoch = 0

    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return list(self._entries.keys())

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        entry = self._entries.get(key)
        _observe_lookup("hit" if entry is not None else "miss")
        return entry

    def publish(
        self, key: tuple, view_names: Sequence[str], memo: Iterable
    ) -> MemoEntry:
        entry = MemoEntry(
            epoch=self._epoch,
            view_names=tuple(view_names),
            memo=list(memo)[-MEMO_EXPORT_MAX:],
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._enforce_capacity()
        self._flush()
        _observe_size(len(self._entries), self._epoch)
        return entry

    def invalidate_views(self, names: Iterable[str]) -> int:
        """Evict every entry touching ``names``; always bump the epoch.

        The epoch bumps even when nothing was evicted: readers with
        locally cached planners for a key published under the old epoch
        must revalidate regardless (their entry may have been evicted by
        an earlier invalidation they never observed).
        """
        targets = set(names)
        victims = [
            key
            for key, entry in self._entries.items()
            if targets.intersection(entry.view_names)
        ]
        for key in victims:
            del self._entries[key]
        self._epoch += 1
        self._flush()
        _observe_eviction("invalidation", len(victims))
        _observe_size(len(self._entries), self._epoch)
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()
        self._epoch += 1
        self._flush()

    def close(self) -> None:  # interface parity with SharedMemoTier
        pass

    def unlink(self) -> None:
        pass

    # ------------------------------------------------------------------

    def _enforce_capacity(self) -> None:
        evicted = 0
        while (
            len(self._entries) > 1
            and self._payload_size() > self.capacity
        ):
            self._entries.popitem(last=False)
            evicted += 1
        _observe_eviction("capacity", evicted)

    def _payload_size(self) -> int:
        return len(pickle.dumps(self._entries, pickle.HIGHEST_PROTOCOL))

    def _flush(self) -> None:  # shared-memory subclass hook
        pass


class SharedMemoTier(LocalMemoTier):
    """The memo tier over one ``multiprocessing.shared_memory`` segment.

    Construct with ``create=True`` in the daemon master (the single
    writer); workers attach read-only via :meth:`attach`. The writer
    keeps the authoritative entry dict in process memory, so publishes
    are a serialize-and-frame of known state, never a read-modify-write
    of the segment.
    """

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
        self._flush()

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

    def _read_entries(self) -> tuple[dict, int]:
        """A consistent (entries, epoch) snapshot via the seqlock."""
        for _attempt in range(1000):
            magic, gen1, epoch, length = self._read_header()
            if magic != _MAGIC or gen1 % 2 == 1:
                continue
            raw = bytes(
                self._shm.buf[_HEADER.size:_HEADER.size + length]
            )
            _magic, gen2, _epoch, _length = self._read_header()
            if gen1 == gen2:
                try:
                    return pickle.loads(raw) if length else {}, epoch
                except Exception:
                    continue  # torn write slipped through; retry
        return {}, self.epoch()  # writer wedged mid-publish: act cold

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        if self._writer:
            return super().lookup(key)
        entries, _epoch = self._read_entries()
        entry = entries.get(key)
        _observe_lookup("hit" if entry is not None else "miss")
        return entry

    def __len__(self) -> int:
        if self._writer:
            return len(self._entries)
        entries, _epoch = self._read_entries()
        return len(entries)

    def keys(self):
        if self._writer:
            return list(self._entries.keys())
        entries, _epoch = self._read_entries()
        return list(entries.keys())

    # Writer protocol ---------------------------------------------------

    def _flush(self) -> None:
        if not getattr(self, "_writer", False):
            raise RuntimeError("read-only attachment cannot publish")
        payload = pickle.dumps(self._entries, pickle.HIGHEST_PROTOCOL)
        while len(payload) > self.capacity and len(self._entries) > 0:
            # Oversized even after _enforce_capacity (single huge entry):
            # drop oldest until it frames, an empty tier being valid.
            self._entries.popitem(last=False)
            _observe_eviction("capacity", 1)
            payload = pickle.dumps(self._entries, pickle.HIGHEST_PROTOCOL)
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

    def _payload_size(self) -> int:
        return len(pickle.dumps(self._entries, pickle.HIGHEST_PROTOCOL))

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
