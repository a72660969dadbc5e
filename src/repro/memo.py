"""The one bounded memo type of the search core, and its one switch.

The usability conditions are pure functions re-derived for every
(query, view, mapping) triple, so the search core memoizes five things:
predicate closures, canonical keys, C3 residuals (process-wide, created
with :func:`shared`), and per planner the single-view substitutions and
each strategy's per-query answers. All five are :class:`Memo` instances:
a least-recently-used dict with a cap and counters.

Thread-sharing rule. The process-wide memos are shared by every thread
of a ``mode="thread"`` batch, so :meth:`Memo.get` is lock-free and
tolerates one race: another thread evicting the key between the lookup
and the LRU touch. Counters are plain ``+=`` and may drop an update
under contention — they are diagnostics, never control flow. Cached
values are shared between callers and must be treated as immutable. A
planner's own memos are used by one thread at a time; another thread
may read their ``inserts``.

The serial daemon's ``PlannerCache`` memos (its planners and its stored
responses) are the other shared case: the event-loop thread reads them
beside the worker thread that runs requests. The loop only looks with
:meth:`Memo.peek` and touches a hit with :meth:`Memo.get`; it never
stores, so every insert and eviction happens on the worker thread.

``Catalog.memo`` (the serving keys) is a plain dict both threads store
into: a mutator writes, then moves the catalog's version, and a reader
stores under the version it read before computing.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

#: What :meth:`Memo.get` returns for "no entry": ``None`` is a value a
#: memo can hold (an unusable C3 residual is cached as ``None``).
MISSING = object()

_enabled = True


class Memo:
    """A bounded LRU memo with hit/miss/eviction/bypass/insert counters."""

    __slots__ = (
        "cap", "hits", "misses", "evictions", "bypasses", "inserts",
        "_entries",
    )

    def __init__(self, cap: int):
        self.cap = cap
        self.hits = self.misses = self.evictions = self.bypasses = 0
        #: Entries ever stored. Only grows — eviction, the LRU touch and
        #: :meth:`clear` leave it alone — so it is a version that moves
        #: exactly when the memo gained (or overwrote) an entry.
        self.inserts = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, default=MISSING):
        """The value stored under ``key`` (now most recently used), or
        ``default``. Inside :func:`disabled` every lookup misses without
        touching the entries and counts as a bypass."""
        if not _enabled:
            self.bypasses += 1
            return default
        entries = self._entries
        value = entries.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            return default
        self.hits += 1
        try:
            entries.move_to_end(key)
        except KeyError:
            # Another thread evicted the key after the lookup above; the
            # value in hand is still the right answer.
            pass
        return value

    def peek(self, key, default=MISSING):
        """The value stored under ``key``, or ``default``, without
        counting a lookup or touching LRU order. Inside :func:`disabled`
        it finds nothing, like :meth:`get`."""
        if not _enabled:
            return default
        return self._entries.get(key, default)

    def put(self, key, value) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used one past the cap. A no-op inside
        :func:`disabled`."""
        if not _enabled:
            return
        self.inserts += 1
        self._entries[key] = value
        # One pop per put: racing threads can never pop more entries
        # than they stored, so the dict cannot be found empty here.
        if len(self._entries) > self.cap:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key) -> bool:
        """Membership without counting a lookup or touching LRU order."""
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list:
        """``(key, value)`` pairs, least recently used first."""
        return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry and zero the lookup counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = self.bypasses = 0

    def stats(self) -> dict:
        """The one stats shape every memo reports."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


#: The process-wide memos by name; per-planner memos live on the planner.
_shared: dict[str, Memo] = {}


def shared(name: str, cap: int) -> Memo:
    """Create and register the process-wide memo ``name``."""
    memo = _shared[name] = Memo(cap)
    return memo


def shared_memos() -> dict[str, Memo]:
    """The registry of process-wide memos (live objects, by name)."""
    return _shared


def clear_shared() -> None:
    """Empty every process-wide memo and zero its counters."""
    for memo in _shared.values():
        memo.clear()


@contextmanager
def disabled() -> Iterator[None]:
    """Run with every :class:`Memo` in the process bypassed (the
    uncached search, for A/B baselines)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous
