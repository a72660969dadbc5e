"""Explain *why* a view is or is not usable for a query.

The rewriting functions answer yes/no; warehouse operators need the
reason ("the view projects out Month, which the query groups by"). This
module holds no condition logic of its own: it enumerates the candidate
mappings and runs the rewriter's own checks with a report sink, so every
verdict shown is the one the planner acts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..blocks.query_block import QueryBlock, ViewDef
from ..catalog.schema import Catalog
from ..mappings.column_mapping import ColumnMapping
from ..mappings.enumerate_mappings import enumerate_mappings
from .aggregate import try_rewrite_aggregation
from .common import ConditionReport
from .conjunctive import try_rewrite_conjunctive
from .setsem import try_rewrite_set_semantics

#: Refusals that do not depend on the mapping; when every mapping stops
#: at one, the diagnosis states it once as its ``scope_failure``.
_MAPPING_INDEPENDENT = ("scope", "4.5")


@dataclass
class MappingDiagnosis:
    mapping: ColumnMapping
    reports: list[ConditionReport] = field(default_factory=list)
    #: Did the rewriter return a rewriting under this mapping?
    usable: bool = False

    def first_failure(self) -> Optional[ConditionReport]:
        for report in self.reports:
            if not report.ok:
                return report
        return None


@dataclass
class UsabilityDiagnosis:
    query: QueryBlock
    view: ViewDef
    scope_failure: Optional[str] = None
    mappings: list[MappingDiagnosis] = field(default_factory=list)
    #: True when no 1-1 mapping exists but a many-to-1 one does — the
    #: Section 5.2 hint shown when no catalog was given.
    many_to_one_possible: bool = False

    @property
    def usable(self) -> bool:
        return any(m.usable for m in self.mappings)

    def summary(self) -> str:
        lines = [f"view {self.view.name}: "
                 + ("USABLE" if self.usable else "not usable")]
        if self.scope_failure:
            lines.append(f"  {self.scope_failure}")
            return "\n".join(lines)
        if not self.mappings:
            lines.append(
                "  C1: no column mapping exists — some view table has no "
                "same-named counterpart in the query (Definition 2.1)"
            )
            if self.many_to_one_possible:
                lines.append(
                    "  note: many-to-1 mappings do exist; with keys or "
                    "SELECT DISTINCT the Section 5.2 set-semantics "
                    "relaxation may apply (pass a catalog to diagnose it)"
                )
        for i, diagnosis in enumerate(self.mappings, 1):
            lines.append(f"  mapping {i}: {diagnosis.mapping.describe()}")
            for report in diagnosis.reports:
                lines.append(f"    {report}")
        return "\n".join(lines)


def explain_usability(
    query: QueryBlock, view: ViewDef, catalog: Optional[Catalog] = None
) -> UsabilityDiagnosis:
    """Diagnose usability of ``view`` for ``query`` across all mappings.

    Mirrors :func:`repro.core.multiview.single_view_rewritings`: the 1-1
    mappings go through the Section 3 or Section 4 check, and — when a
    ``catalog`` with key information is given, as ``RewriteEngine`` does
    by default — the remaining many-to-1 mappings go through the Section
    5.2 check.
    """
    diagnosis = UsabilityDiagnosis(query=query, view=view)

    def diagnose(rewrite, mapping: ColumnMapping, *extra) -> None:
        reports: list[ConditionReport] = []
        found = rewrite(query, view, mapping, *extra, reports=reports)
        diagnosis.mappings.append(
            MappingDiagnosis(mapping, reports, usable=found is not None)
        )

    if view.block.is_conjunctive:
        one_to_one = try_rewrite_conjunctive
    else:
        one_to_one = try_rewrite_aggregation
    for mapping in enumerate_mappings(view.block, query):
        diagnose(one_to_one, mapping)
    many = (
        m
        for m in enumerate_mappings(view.block, query, many_to_one=True)
        if not m.is_one_to_one
    )
    if catalog is not None:
        for mapping in many:
            diagnose(try_rewrite_set_semantics, mapping, catalog)
    elif not diagnosis.mappings:
        diagnosis.many_to_one_possible = next(many, None) is not None

    stops = [m.first_failure() for m in diagnosis.mappings]
    if stops and all(
        s is not None and s.condition in _MAPPING_INDEPENDENT for s in stops
    ):
        diagnosis.scope_failure = f"{stops[0].condition}: {stops[0].detail}"
    return diagnosis
