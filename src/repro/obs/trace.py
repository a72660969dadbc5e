"""Hierarchical trace spans for the rewrite pipeline.

The rewrite path (parse → normalize → signature-index probe → mapping
enumeration → C1–C4 checks → merge → maximality) opens every stage with
the module-level :func:`span`, so the instrumentation needs no tracer
argument plumbed through every function.

Two properties drive the design:

near-zero overhead when disabled
    With no active tracer, :func:`span` returns a shared no-op context
    (no allocation at all). Enabling a tracer is an explicit, scoped act
    (:func:`tracing`).

stage-shaped trees
    Hot inner stages run once per BFS node; a naive tracer would emit
    thousands of children. Spans instead *merge by name* under their
    parent — re-entering ``mapping_enumeration`` accumulates seconds and
    a call count into the same node — so the tree mirrors the pipeline's
    stages, not the search's size.

The finished tree is surfaced as a :class:`RewriteTrace` on
:class:`repro.core.rewriter.RewriteResult` and printed by
``repro explain --trace`` / ``repro rewrite --trace``. Its counters are
the planner's per-search deltas, folded once per search together with
the ``repro_planner_*`` metrics (:mod:`repro.core.planner`).

The active tracer is thread-local, on the same thread-local as the
active metrics registry (:class:`repro.obs.metrics.collecting`): the
rewrite path is synchronous within one thread, and the batch service
(:mod:`repro.service`) runs one engine per worker thread, so traces
from concurrent requests never interleave. :func:`merge_spans` stitches
finished per-request trees into one batch-level tree.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from .metrics import _ACTIVE, collecting


class Span:
    """One named pipeline stage: accumulated seconds, calls, children."""

    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: dict[str, Span] = {}

    def child(self, name: str) -> "Span":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Span(name)
        return node

    def as_dict(self) -> dict:
        out: dict = {
            "seconds": round(self.seconds, 6),
            "count": self.count,
        }
        if self.children:
            out["children"] = {
                name: child.as_dict()
                for name, child in self.children.items()
            }
        return out

    def total_spans(self) -> int:
        return 1 + sum(c.total_spans() for c in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s x{self.count})"


class _SpanContext:
    """The context manager :func:`span` returns while a tracer is active."""

    __slots__ = ("tracer", "name", "started", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        parent = self.tracer._stack[-1]
        self.span = parent.child(self.name)
        self.tracer._stack.append(self.span)
        self.started = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.seconds += time.perf_counter() - self.started
        self.span.count += 1
        self.tracer._stack.pop()
        return False


class _NullContext:
    """Shared do-nothing context for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects one span tree plus flat counters for a rewrite call."""

    def __init__(self, root_name: str = "rewrite"):
        self.root = Span(root_name)
        self._stack: list[Span] = [self.root]
        self.counters: dict[str, int] = {}
        self._started = time.perf_counter()

    def add(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        if self.root.count == 0:
            self.root.seconds = time.perf_counter() - self._started
            self.root.count = 1
        return self.root


def tracing(tracer: Optional[Tracer]) -> collecting:
    """Activate ``tracer`` for the dynamic extent of a ``with`` block
    (``None`` leaves the active tracer in place)."""
    return collecting(tracer=tracer)


def span(name: str):
    """A span context for ``name`` — the shared no-op when tracing is off."""
    tracer = _ACTIVE.tracer
    if tracer is None:
        return _NULL_CONTEXT
    return _SpanContext(tracer, name)


def merge_spans(
    roots: Iterable[Span], name: str = "batch"
) -> Span:
    """Stitch finished span trees into one tree under a fresh root.

    Children merge by name exactly as live spans do — seconds and call
    counts accumulate — so a batch of traced rewrites reports one
    stage-shaped tree, not one subtree per request. Inputs are left
    untouched.
    """
    merged = Span(name)

    def fold(target: Span, source: Span) -> None:
        target.seconds += source.seconds
        target.count += source.count
        for child in source.children.values():
            fold(target.child(child.name), child)

    for root in roots:
        fold(merged.child(root.name), root)
        merged.seconds += root.seconds
        merged.count = 1
    return merged


class RewriteTrace:
    """The observable outcome of one instrumented rewrite call.

    ``root`` is the merged span tree; ``counters`` are flat search
    counters (the planner's PlannerStats deltas); ``budget``
    is the meter snapshot when a budget was supplied.
    """

    def __init__(
        self,
        root: Span,
        counters: Optional[dict] = None,
        budget: Optional[dict] = None,
    ):
        self.root = root
        self.counters = dict(counters or {})
        self.budget = budget

    @property
    def exhausted(self) -> bool:
        return bool(self.budget and self.budget.get("exhausted"))

    def stage_seconds(self) -> dict[str, float]:
        """Flat ``stage name -> accumulated seconds`` over the tree.

        Stages that appear at several depths (the same name re-entered
        under different parents) are summed.
        """
        out: dict[str, float] = {}

        def walk(node: Span) -> None:
            out[node.name] = out.get(node.name, 0.0) + node.seconds
            for child in node.children.values():
                walk(child)

        for child in self.root.children.values():
            walk(child)
        return out

    def as_dict(self) -> dict:
        out: dict = {
            "spans": {self.root.name: self.root.as_dict()},
            "counters": self.counters,
        }
        if self.budget is not None:
            out["budget"] = self.budget
        return out

    def format(self) -> str:
        """A fixed-width tree for the CLI (milliseconds, call counts)."""
        lines: list[str] = []

        def walk(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                label, child_prefix = node.name, ""
            else:
                branch = "`- " if is_last else "|- "
                label = prefix + branch + node.name
                child_prefix = prefix + ("   " if is_last else "|  ")
            calls = f" x{node.count}" if node.count > 1 else ""
            lines.append(
                f"{label:<40} {node.seconds * 1e3:10.3f} ms{calls}"
            )
            kids = list(node.children.values())
            for i, child in enumerate(kids):
                walk(child, child_prefix, i == len(kids) - 1, False)

        walk(self.root, "", True, True)
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name} = {self.counters[name]}")
        if self.budget is not None:
            lines.append(
                "budget: exhausted="
                + str(self.budget.get("exhausted"))
                + (
                    f" tripped={','.join(self.budget.get('tripped', []))}"
                    if self.budget.get("tripped")
                    else ""
                )
                + f" mappings={self.budget.get('mappings_enumerated')}"
                + f" candidates={self.budget.get('candidates_generated')}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
