"""Planner strategies: named search regimes behind one ``repro.api`` facade.

The paper's C1–C4 conditions are sound but incomplete — many queries
with perfectly good view-based rewritings get none. This package hosts
the alternatives:

``c1c4``
    the default: the paper's usability-condition search exactly as
    :func:`repro.core.multiview.all_rewritings` runs it.
``cohen_nutt``
    the C1–C4 result set *plus* the Cohen & Nutt complete-rewriting
    extras of :mod:`repro.strategies.cohen_nutt` (unfolding candidate
    views into the query body and deciding equivalence under aggregation
    semantics). Every C1–C4 rewriting is found or subsumed by
    construction — the union is deduplicated by canonical key, and
    the differential oracle re-asserts that dominance per scenario.

The strategy name travels end to end: ``repro.api.rewrite(strategy=...)``,
``--strategy`` on the ``rewrite`` / ``batch`` / ``fuzz`` CLI commands,
the ``strategy`` field of a ``repro-api/1`` wire request (validated
and carried in ``RewriteRequest.strategy``), and the ``strategy`` field
of ``repro-fuzz/1`` repro files. See ``docs/strategies.md``.
"""

from __future__ import annotations

from ..errors import ReproError

#: Engine-level strategy names, in documentation order. The wire
#: protocol additionally accepts ``default``, meaning ``c1c4``.
STRATEGY_NAMES = ("c1c4", "cohen_nutt")

#: What unannotated requests (and pre-strategy repro-fuzz/1 files) mean.
DEFAULT_STRATEGY = "c1c4"


def normalize_strategy(name) -> str:
    """Validate a strategy name; ``None`` means the default (``c1c4``)."""
    if name is None:
        return DEFAULT_STRATEGY
    if name not in STRATEGY_NAMES:
        known = ", ".join(STRATEGY_NAMES)
        raise ReproError(f"unknown strategy {name!r} (known: {known})")
    return name


from .cohen_nutt import cohen_nutt_rewritings  # noqa: E402

__all__ = [
    "DEFAULT_STRATEGY",
    "STRATEGY_NAMES",
    "cohen_nutt_rewritings",
    "normalize_strategy",
]
