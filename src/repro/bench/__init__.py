"""Benchmark harness helpers."""

from .harness import ResultTable, speedup, time_best, time_once

__all__ = ["ResultTable", "speedup", "time_best", "time_once"]
