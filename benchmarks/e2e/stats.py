"""Percentiles, per-segment summaries, span records, metrics-snapshot reads.

Everything the workloads share that is pure arithmetic lives here, so a
reviewer can check how a reported number is derived in one place.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: Class latencies and the p99 need more samples than a fine segment
#: holds; they are taken over this many coarse groups of segments.
COARSE = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


@dataclass
class Measured:
    """One reported metric and, for a timing, the per-segment values it
    was chosen from.

    Count metrics (exact over the whole window) carry a single value and
    no segments.
    """

    value: float
    segments: tuple[float, ...] = ()

    @property
    def low(self) -> float:
        return min(self.segments) if self.segments else self.value

    @property
    def high(self) -> float:
        return max(self.segments) if self.segments else self.value

    def as_dict(self, unit: str) -> dict:
        out = {"value": self.value, "unit": unit}
        if self.segments:
            out["min"] = self.low
            out["max"] = self.high
            out["segments"] = list(self.segments)
        return out


def best_of(values: Iterable[float], better: str = "lower") -> Measured:
    """The quietest segment's value: the estimator of every timing.

    Interference on a shared host only ever slows a segment down, and it
    comes in phases that last seconds, so the median of a run's segments
    moves with the host (measured: 15 % between runs of one commit)
    while the best segment does not (2-4 %). See README.md.
    """
    values = tuple(values)
    return Measured((min if better == "lower" else max)(values), values)


def median_of(values: Iterable[float]) -> Measured:
    """The median of repeated set-ups."""
    values = tuple(values)
    return Measured(statistics.median(values), values)


def p50_p99(name: str, samples: Sequence[float], scale: float) -> dict:
    """``{name_p50, name_p99}`` of ``samples`` (seconds) times ``scale``."""
    return {
        f"{name}_p50": Measured(percentile(samples, 50) * scale),
        f"{name}_p99": Measured(percentile(samples, 99) * scale),
    }


def split(items: Sequence, parts: int) -> list[Sequence]:
    """``items`` as ``parts`` equal consecutive slices (length must divide)."""
    size, rest = divmod(len(items), parts)
    if rest:
        raise ValueError(f"{len(items)} items do not split {parts} ways")
    return [items[i * size:(i + 1) * size] for i in range(parts)]


# ----------------------------------------------------------------------
# Spans


@dataclass
class SpanLog:
    """In-memory span records, written out once when the run ends.

    One record per layer-boundary call: ``name``, ``start``/``end``
    (``perf_counter`` seconds), the ``parent`` span name that caused it
    (``None`` for a request's root), the ``request`` identifier all
    spans of one request share, and an optional ``tag`` (latency class
    on a root, planner path on ``run``).
    """

    records: list[tuple] = field(default_factory=list)

    def add(
        self,
        request: str,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> None:
        self.records.append((request, name, parent, start, end, tag))

    def durations(self, name: str, tag: Optional[str] = None) -> list[float]:
        return [
            r[4] - r[3]
            for r in self.records
            if r[1] == name and (tag is None or r[5] == tag)
        ]

    def per_request(self, name: str) -> list[float]:
        """Total duration of ``name`` spans inside each request."""
        totals: dict[str, float] = {}
        for request, span_name, _parent, start, end, _tag in self.records:
            if span_name == name:
                totals[request] = totals.get(request, 0.0) + (end - start)
        return list(totals.values())

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: duration minus what direct children cover."""
        covered: dict[tuple, float] = {}
        for request, _name, parent, start, end, _tag in self.records:
            if parent is not None:
                key = (request, parent)
                covered[key] = covered.get(key, 0.0) + (end - start)
        out: dict[str, list[float]] = {}
        for request, name, _parent, start, end, _tag in self.records:
            own = (end - start) - covered.get((request, name), 0.0)
            out.setdefault(name, []).append(max(0.0, own))
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for request, name, parent, start, end, tag in self.records:
                record = {
                    "request": request,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                }
                if tag is not None:
                    record["tag"] = tag
                handle.write(json.dumps(record) + "\n")


def add_trace_children(
    log: SpanLog, request: str, parent: str, start: float, root
) -> None:
    """Attach the program's own ``obs.trace`` tree under ``parent``.

    ``root`` is ``RewriteTrace.root`` (a ``repro.obs.Span``). The tracer
    keeps durations, not timestamps (it merges re-entered stages by
    name), so children are laid end to end from their parent's start.
    """

    def walk(node, under: str, at: float) -> None:
        log.add(request, node.name, at, at + node.seconds, under)
        for child in node.children.values():
            walk(child, node.name, at)
            at += child.seconds

    walk(root, parent, start)


# ----------------------------------------------------------------------
# repro-metrics/1 snapshots (the daemon's `metrics` op, collect_metrics)


def family_total(snapshot: Optional[dict], family: str, /, **labels) -> float:
    """Sum of a counter/gauge family's samples matching ``labels``.

    Histograms sum their ``count``; use :func:`histogram_sum` for the
    observed total.
    """
    return _family_fold(snapshot, family, labels, "count")


def histogram_sum(snapshot: Optional[dict], family: str, /, **labels) -> float:
    return _family_fold(snapshot, family, labels, "sum")


def _family_fold(snapshot, family, labels, histogram_field) -> float:
    if not snapshot:
        return 0.0
    entry = snapshot.get("families", {}).get(family)
    if entry is None:
        return 0.0
    names = entry["labelnames"]
    total = 0.0
    for values, sample in entry["samples"]:
        bound = dict(zip(names, values))
        if any(bound.get(k) != v for k, v in labels.items()):
            continue
        total += sample[histogram_field] if isinstance(sample, dict) else sample
    return total


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
