"""Predicate reasoning: closures, implication, residuals, HAVING motion."""

from .closure import Closure
from .having import normalize_having
from .implication import equivalent, implies, minimize, satisfiable
from .residual import (
    atoms_constants,
    express_over,
    find_residual,
    rewrite_conjunction,
)

__all__ = [
    "Closure",
    "normalize_having",
    "equivalent",
    "implies",
    "minimize",
    "satisfiable",
    "atoms_constants",
    "express_over",
    "find_residual",
    "rewrite_conjunction",
]
