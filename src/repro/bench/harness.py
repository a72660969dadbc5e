"""Shared helpers for the benchmark suite: timing and result tables.

Benchmarks print the series they measure in a fixed-width table so that
``pytest benchmarks/ --benchmark-only`` output doubles as the
EXPERIMENTS.md data source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


def time_once(fn: Callable[[], object]) -> float:
    """Wall-clock seconds for one call."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds (reduces scheduler noise)."""
    return min(time_once(fn) for _ in range(repeats))


@dataclass
class ResultTable:
    """Collects rows and renders a fixed-width table to stdout."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            f"== {self.title} ==",
            "  ".join(c.rjust(w) for c, w in zip(self.columns, widths)),
        ]
        for row in cells:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def speedup(baseline: float, improved: float) -> Optional[float]:
    """``baseline / improved`` guarded against zero timings."""
    if improved <= 0:
        return None
    return baseline / improved
