"""Admission control: bounded queue + per-tenant budget quotas.

The daemon never drops a connection and never blocks the event loop on
a full backlog. Admission is decided synchronously when a request line
arrives; a request that cannot be queued gets an in-band *refused*
response — the same degraded shape as the batch service's
``batch_deadline`` path, with the trip label naming the reason:

``queue_full``
    the daemon-wide in-flight bound is reached. The bound covers every
    admitted-but-unfinished request, i.e. the executor queue plus the
    running ones.

``tenant_quota``
    the requesting tenant is at its own in-flight cap. Tenants are named
    by the ``tenant`` field on the wire; absent means the shared
    ``"default"`` tenant.

Quotas also carry a *budget cap*: a per-tenant ceiling on search
deadline that tightens (never loosens) whatever budget the request
asked for, via the same :meth:`SearchBudget.merged_with` discipline the
batch deadline overlay uses. A tenant can therefore be bounded both in
concurrency and in per-request search effort.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..obs.budget import SearchBudget
from ..obs.metrics import counter, gauge

#: Trip labels for refused responses (mirrors BATCH_DEADLINE).
QUEUE_FULL = "queue_full"
TENANT_QUOTA = "tenant_quota"

#: Tenant name used when a request does not declare one.
DEFAULT_TENANT = "default"

ADMISSIONS = counter(
    "repro_serving_admission_total",
    "Admission decisions, by outcome.",
    ("outcome",),
)
QUEUE_DEPTH = gauge(
    "repro_serving_queue_depth",
    "Admitted-but-unfinished requests in the daemon.",
)


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission and budget ceiling.

    ``max_inflight`` bounds concurrent admitted requests; ``None`` means
    only the daemon-wide queue bound applies. ``deadline_ms_cap`` caps
    the search deadline of every request the tenant submits.
    """

    max_inflight: Optional[int] = None
    deadline_ms_cap: Optional[float] = None

    def budget_cap(self) -> Optional[SearchBudget]:
        if self.deadline_ms_cap is None:
            return None
        return SearchBudget(deadline=self.deadline_ms_cap / 1000.0)


class AdmissionController:
    """Decide, count and meter what enters the daemon's request queue."""

    def __init__(
        self,
        queue_limit: int = 64,
        default_quota: Optional[TenantQuota] = None,
        tenant_quotas: Optional[dict[str, TenantQuota]] = None,
    ):
        self.queue_limit = queue_limit
        self.default_quota = default_quota or TenantQuota()
        self.tenant_quotas = dict(tenant_quotas or {})
        self._lock = threading.Lock()
        self._inflight = 0
        self._per_tenant: dict[str, int] = {}

    @property
    def depth(self) -> int:
        """Admitted-but-unfinished requests (the queue depth gauge)."""
        return self._inflight

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.tenant_quotas.get(tenant, self.default_quota)

    def budget_cap(self, tenant: str) -> Optional[SearchBudget]:
        return self.quota_for(tenant).budget_cap()

    def admit(self, tenant: str = DEFAULT_TENANT) -> Optional[str]:
        """Admit or refuse; returns the refusal trip label, or ``None``.

        On ``None`` the request is counted in-flight and the caller MUST
        pair it with exactly one :meth:`release`.
        """
        quota = self.quota_for(tenant)
        with self._lock:
            if self._inflight >= self.queue_limit:
                outcome = QUEUE_FULL
            elif (
                quota.max_inflight is not None
                and self._per_tenant.get(tenant, 0) >= quota.max_inflight
            ):
                outcome = TENANT_QUOTA
            else:
                outcome = None
                self._inflight += 1
                self._per_tenant[tenant] = (
                    self._per_tenant.get(tenant, 0) + 1
                )
            depth = self._inflight
        ADMISSIONS.labels(outcome or "admitted").inc()
        QUEUE_DEPTH.set(depth)
        return outcome

    def release(self, tenant: str = DEFAULT_TENANT) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            remaining = self._per_tenant.get(tenant, 0) - 1
            if remaining > 0:
                self._per_tenant[tenant] = remaining
            else:
                self._per_tenant.pop(tenant, None)
            depth = self._inflight
        QUEUE_DEPTH.set(depth)
