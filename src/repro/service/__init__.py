"""Concurrent batch rewriting service.

The public surface is intentionally small: build the immutable request
objects (:class:`RewriteRequest`), hand a sequence of them to
:func:`rewrite_batch`, and read the positionally aligned
:class:`BatchResult`. A batch keeps nothing between calls;
:mod:`repro.api` re-exports the same ``rewrite_batch``.

Layering, bottom-up:

* :mod:`repro.service.requests` — frozen wire types and the
  ``repro-api/1`` JSON projection;
* :mod:`repro.service.batcher` — value-based grouping by planner
  fingerprint;
* :mod:`repro.service.executor` — the single-request path every mode
  shares (this is where batch parity is won);
* :mod:`repro.service.degradation` — batch-deadline overlays and the
  graceful-refusal contract;
* :mod:`repro.service.pool` — :func:`rewrite_batch` and its
  serial/thread/process backends.
"""

from .batcher import (
    RequestGroup,
    catalog_fingerprint,
    chunk_groups,
    group_requests,
    request_group_key,
)
from .degradation import BATCH_DEADLINE, BatchDeadline, refused_response
from .executor import execute_request
from .pool import MODES, rewrite_batch
from .requests import (
    API_SCHEMA,
    BatchResult,
    RewriteRequest,
    RewriteResponse,
)

__all__ = [
    "API_SCHEMA",
    "BATCH_DEADLINE",
    "BatchDeadline",
    "BatchResult",
    "MODES",
    "RequestGroup",
    "RewriteRequest",
    "RewriteResponse",
    "catalog_fingerprint",
    "chunk_groups",
    "execute_request",
    "group_requests",
    "refused_response",
    "request_group_key",
    "rewrite_batch",
]
