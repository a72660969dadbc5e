"""The always-on rewriting daemon (``repro serve``) and its client.

Layers, bottom up:

:mod:`repro.serving.memo`
    the persistent cross-request memo tier — epoch-stamped planner
    substitution memos, held as framed records in process memory;
:mod:`repro.serving.admission`
    bounded request queue and per-tenant quotas; overload refuses
    in-band, never drops a connection;
:mod:`repro.serving.protocol`
    the ``repro-api/1`` JSONL wire format: the one line parser shared
    with ``repro batch``, and the serving fingerprint;
:mod:`repro.serving.worker`
    request execution with memo-tier warm start (the epoch protocol's
    reader side) and a memo of finished responses that an update
    re-ranks instead of discarding;
:mod:`repro.serving.daemon`
    the asyncio TCP/Unix server tying it together in one process,
    including maintenance-delta cache invalidation;
:mod:`repro.serving.client`
    the blocking JSONL client behind :func:`repro.api.connect`.

See ``docs/serving.md``.
"""

from .admission import (
    DEFAULT_TENANT,
    QUEUE_FULL,
    TENANT_QUOTA,
    AdmissionController,
    TenantQuota,
)
from .client import ServingClient, ServingClientError, parse_address
from .daemon import RewriteDaemon
from .memo import DEFAULT_CAPACITY, LocalMemoTier, MemoEntry

# Not public: importable here only because the end-to-end benchmark's
# in-process replay (benchmarks/e2e/layers.py) imports it from the package.
from .memo import create_memo_tier  # noqa: F401
from .protocol import (
    DEFAULT_STRATEGY,
    OPS,
    ProtocolError,
    parse_line,
    request_from_wire,
    resolve_strategy,
    serving_group_key,
    strategy_names,
)
from .worker import COLD, WARM_LOCAL, WARM_SHARED, PlannerCache

__all__ = [
    "AdmissionController",
    "COLD",
    "DEFAULT_CAPACITY",
    "DEFAULT_STRATEGY",
    "DEFAULT_TENANT",
    "LocalMemoTier",
    "MemoEntry",
    "OPS",
    "PlannerCache",
    "ProtocolError",
    "QUEUE_FULL",
    "RewriteDaemon",
    "ServingClient",
    "ServingClientError",
    "TENANT_QUOTA",
    "TenantQuota",
    "WARM_LOCAL",
    "WARM_SHARED",
    "parse_address",
    "parse_line",
    "request_from_wire",
    "resolve_strategy",
    "serving_group_key",
    "strategy_names",
]
