"""Group batch requests so identical view sets share planner warm-up.

The planner's expensive state — the view-signature index and the
substitution memo — is a pure function of ``(catalog tables, views,
use_set_semantics)``. Two requests with equal triples can therefore run
against one shared :class:`~repro.core.planner.RewritePlanner`, paying
for index construction once and reusing memoized single-view
substitutions across the whole group (the hot-query amortization that
motivates the service; cf. Cohen & Nutt's framing of rewriting as
parallel candidate search over a fixed view set).

Grouping is value-based, not identity-based: the fingerprint hashes the
catalog's table schemas and each view's canonical key, so equal-but-
distinct catalog objects (for example, requests deserialized from a
JSONL file) still coalesce. Canonical keys are strings, which also makes
fingerprints stable across processes under hash randomization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..blocks.query_block import ViewDef
from ..catalog.schema import Catalog
from ..core.canonical import canonical_key
from .requests import RewriteRequest

#: Fingerprint of one group: hashable, equal iff planner state is
#: interchangeable between the groups' requests.
GroupKey = tuple


def view_fingerprint(view: ViewDef) -> tuple:
    """A value-identity for one view, stable across processes."""
    return (view.name, canonical_key(view.block), view.output_names)


def catalog_fingerprint(catalog: Optional[Catalog]) -> tuple:
    """A value-identity for everything a rewrite reads off a catalog.

    Table schemas (keys and FDs feed the Section 5 set-semantics
    checks), registered views (they resolve FROM names during parsing
    and are the default candidate set) and view cardinality estimates
    (they drive cost ranking) are all included, so requests whose
    catalogs share a fingerprint are interchangeable end to end — the
    group executor runs every member against one representative catalog
    object.
    """
    if catalog is None:
        return ()
    return (
        tuple(sorted(catalog.tables.items())),
        tuple(
            view_fingerprint(view)
            for _, view in sorted(catalog.views.items())
        ),
        tuple(
            sorted(
                (name, catalog.row_count(name)) for name in catalog.views
            )
        ),
    )


def request_group_key(request: RewriteRequest) -> GroupKey:
    return (
        catalog_fingerprint(request.catalog),
        tuple(view_fingerprint(v) for v in request.effective_views()),
        request.use_set_semantics,
    )


@dataclass
class RequestGroup:
    """All requests of one batch that can share a planner."""

    key: GroupKey
    catalog: Optional[Catalog]
    views: tuple[ViewDef, ...]
    use_set_semantics: bool
    #: (position in the submitted batch, request) pairs, batch order.
    members: list[tuple[int, RewriteRequest]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)


def group_requests(
    requests: Sequence[RewriteRequest],
) -> list[RequestGroup]:
    """Partition a batch into planner-sharing groups, first-seen order."""
    groups: dict[GroupKey, RequestGroup] = {}
    for position, request in enumerate(requests):
        key = request_group_key(request)
        group = groups.get(key)
        if group is None:
            group = groups[key] = RequestGroup(
                key=key,
                catalog=request.catalog,
                views=request.effective_views(),
                use_set_semantics=request.use_set_semantics,
            )
        group.members.append((position, request))
    return list(groups.values())


def chunk_groups(
    groups: Iterable[RequestGroup],
    workers: int,
    min_chunk: int = 4,
) -> list[tuple[RequestGroup, list[tuple[int, RewriteRequest]]]]:
    """Split groups into chunks, at most ``workers`` ways.

    Large groups split, but never below ``min_chunk`` requests per
    chunk; small groups stay whole. No batch mode dispatches by chunk
    (:mod:`repro.service.pool` cuts a batch into contiguous slices); the
    benchmark's service probe still reports this count.
    """
    out: list[tuple[RequestGroup, list[tuple[int, RewriteRequest]]]] = []
    for group in groups:
        members = group.members
        parts = max(1, min(workers, len(members) // max(1, min_chunk)))
        size = (len(members) + parts - 1) // parts
        for start in range(0, len(members), size):
            out.append((group, members[start:start + size]))
    return out
