"""Graceful degradation under a batch-level deadline.

The service promises N responses for N requests, no matter what. Under a
batch deadline that means three regimes per request:

run normally
    enough time remains — the request's own budget applies, tightened by
    the remaining batch time (so a straggler cannot overrun the batch);

run truncated
    the overlay deadline trips mid-search — the anytime contract of
    :mod:`repro.obs.budget` returns partial-but-sound results tagged
    ``exhausted=True``;

refuse gracefully
    the deadline was spent before the request was dispatched — a
    degraded response comes back immediately with ``exhausted=True`` and
    ``"batch_deadline"`` among the tripped limits. Never dropped, never
    an exception.

Across process workers the deadline is one absolute instant. Monotonic
clocks need not be comparable between processes, so the master ships the
deadline's wall-clock expiry (:meth:`BatchDeadline.wall_expiry`) and each
worker task rebuilds its deadline from that instant
(:meth:`BatchDeadline.until`), however long the task waited in the pool's
queue. A task dequeued after the expiry therefore refuses every member at
once; a batch overruns its deadline by at most the one request each
worker had in flight when it tripped (each is capped by the overlay), plus
the cost of refusing the rest.
"""

from __future__ import annotations

import time
from typing import Optional

from ..obs.budget import SearchBudget
from .requests import RewriteRequest, RewriteResponse

#: The trip label degraded responses report.
BATCH_DEADLINE = "batch_deadline"


class BatchDeadline:
    """Wall-clock budget for one whole batch. ``None`` = unlimited."""

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )

    @classmethod
    def until(cls, wall_expiry: Optional[float]) -> "BatchDeadline":
        """The deadline that trips at ``wall_expiry`` (``time.time()``
        seconds, from :meth:`wall_expiry` in another process)."""
        if wall_expiry is None:
            return cls(None)
        return cls(max(0.0, wall_expiry - time.time()))

    def remaining(self) -> Optional[float]:
        """Seconds left, ``None`` when unlimited, 0.0 once spent."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def wall_expiry(self) -> Optional[float]:
        """When this deadline trips on the ``time.time()`` clock, which
        (unlike the monotonic one) other processes can compare against."""
        remaining = self.remaining()
        return None if remaining is None else time.time() + remaining

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self.remaining() == 0.0

    def overlay(self, request: RewriteRequest) -> Optional[SearchBudget]:
        """The request's effective budget under this deadline.

        Tightens (never loosens) the request's own budget; with no batch
        deadline the request budget passes through untouched.
        """
        remaining = self.remaining()
        if remaining is None:
            return request.budget
        cap = SearchBudget(deadline=remaining)
        if request.budget is None:
            return cap
        return request.budget.merged_with(cap)


def refused_response(
    request: RewriteRequest, reason: str = BATCH_DEADLINE
) -> RewriteResponse:
    """The degraded response for a request that was refused outright.

    ``reason`` is the trip label reported under ``budget["tripped"]`` —
    ``batch_deadline`` for the batch service, ``queue_full`` /
    ``tenant_quota`` for the serving daemon's admission control. The
    shape is identical either way: ``exhausted=True``, ``degraded=True``,
    never a dropped request or an exception.
    """
    return RewriteResponse(
        query=(
            request.query
            if not isinstance(request.query, str)
            else None
        ),
        exhausted=True,
        degraded=True,
        budget={
            "budget": (
                request.budget.as_dict()
                if request.budget is not None
                else SearchBudget().as_dict()
            ),
            "exhausted": True,
            "tripped": [reason],
            "mappings_enumerated": 0,
            "candidates_generated": 0,
        },
        request_id=request.request_id,
    )
