"""Production metrics: counters, gauges and histograms for the pipeline.

Each metric family is declared exactly once, at module level in the
module that owns it, and recorded through the returned handle:

.. code-block:: python

    SEARCHES = counter(
        "repro_planner_searches_total", "Planned multi-view rewrite searches run."
    )
    ...
    SEARCHES.inc()

A handle records into the active registry (:func:`current_metrics`) and
is *free when off*, as the tracer is: with no active registry it costs
one thread-local read and a ``None`` test. A caller holding a registry
of its own records through it with ``registry.family(HANDLE)``.

Three metric kinds, all supporting labeled families:

``Counter``
    monotonically increasing count (``_total`` names by convention);
``Gauge``
    the latest value set (sizes, occupancy);
``Histogram``
    observations bucketed over a fixed exponential ladder
    (:data:`DEFAULT_LATENCY_BUCKETS`) with the *exact* count and sum
    kept alongside, so mean latency is never a bucket approximation.

Thread-safety: value updates take the owning registry's lock, so a
registry shared across threads (the CLI global, the batch service in
thread mode) never loses increments. The service additionally runs each
chunk under its own scoped registry (:class:`collecting`) and folds the
picklable :class:`MetricsSnapshot` back into the parent exactly once
with :meth:`MetricsRegistry.merge` — the same merge discipline as
planner memos — which is
what keeps process-mode workers and the no-double-counting contract
honest (see ``docs/observability.md``).

Exposition: :meth:`MetricsRegistry.render_prometheus` (and the same
method on snapshots) emits the Prometheus text format, served by
``repro metrics`` and the ``--metrics-out FILE`` flag; snapshots also
serialize to the ``repro-metrics/1`` JSON shape carried on
``RewriteResponse``/``BatchResult`` envelopes and in the periodic
frames ``repro serve-sql`` and ``repro serve`` emit (:func:`emit_frame`).
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from bisect import bisect_left
from typing import Optional, Sequence, Union

METRICS_SCHEMA = "repro-metrics/1"

#: Fixed exponential latency ladder (seconds): 250 µs doubling to ~8 s.
#: Decimal-friendly endpoints so the rendered ``le`` labels stay exact.
DEFAULT_LATENCY_BUCKETS = (
    0.00025,
    0.0005,
    0.001,
    0.002,
    0.004,
    0.008,
    0.016,
    0.032,
    0.064,
    0.128,
    0.256,
    0.512,
    1.024,
    2.048,
    4.096,
    8.192,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


# ----------------------------------------------------------------------
# Metric children (one labeled series each)
# ----------------------------------------------------------------------


class Counter:
    """A monotonically increasing series. Negative increments raise."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n <= 0:
            if n < 0:
                raise ValueError("counters only go up; use a Gauge")
            return
        with self._lock:
            self.value += n


class Gauge:
    """A series set to its latest value (sizes, occupancy, rates)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Bucketed observations plus the exact count and sum.

    ``bounds`` are inclusive upper bounds; ``counts`` holds one slot per
    bound plus a final overflow (``+Inf``) slot. Bucket counts are
    stored per-bucket and cumulated only at render time, which keeps
    :meth:`observe` to one bisect and three writes.
    """

    __slots__ = ("_lock", "bounds", "counts", "count", "sum")

    def __init__(self, lock: threading.RLock, bounds: Sequence[float]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must increase: {bounds!r}")
        self._lock = lock
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value


# ----------------------------------------------------------------------
# Labeled families
# ----------------------------------------------------------------------


class MetricFamily:
    """One named family: fixed label names, one child per label values.

    A family declared with no label names proxies the single unlabeled
    child, so ``registry.family(HANDLE).inc()`` works without a
    ``labels()`` hop.
    """

    __slots__ = (
        "name",
        "kind",
        "help",
        "labelnames",
        "buckets",
        "_lock",
        "_children",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._children: dict[tuple, object] = {}

    def labels(self, *values):
        """The child series for one label-value combination."""
        # Children are keyed by str tuples, so string labels of the
        # right arity hit here without any coercion.
        child = self._children.get(values)
        if child is not None:
            return child
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {len(values)} value(s)"
            )
        values = tuple(v if isinstance(v, str) else str(v) for v in values)
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._make_child()
                    self._children[values] = child
        return child

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets or DEFAULT_LATENCY_BUCKETS)

    # Unlabeled-family conveniences --------------------------------------

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; call .labels()"
            )
        return self.labels()

    def inc(self, n: Union[int, float] = 1) -> None:
        self._solo().inc(n)

    def set(self, value: Union[int, float]) -> None:
        self._solo().set(value)

    def observe(self, value: Union[int, float]) -> None:
        self._solo().observe(value)

    @property
    def value(self):
        return self._solo().value


# ----------------------------------------------------------------------
# Snapshot: picklable, mergeable, renderable
# ----------------------------------------------------------------------


class MetricsSnapshot:
    """A frozen, picklable copy of a registry's state.

    ``families`` maps name -> ``{"kind", "help", "labelnames",
    "samples"}`` where each sample is ``[label_values, value]`` —
    scalars for counters/gauges, ``{"count", "sum", "bounds",
    "counts"}`` for histograms. :meth:`MetricsRegistry.merge` folds one
    into a registry (counters/histograms add, gauges last-write-wins),
    so worker registries fold back into a parent without double
    counting.
    """

    __slots__ = ("families",)

    def __init__(self, families: Optional[dict] = None):
        self.families = families if families is not None else {}

    def as_dict(self) -> dict:
        return {"schema": METRICS_SCHEMA, "families": self.families}

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsSnapshot":
        if doc.get("schema") not in (None, METRICS_SCHEMA):
            raise ValueError(f"not a {METRICS_SCHEMA} document: {doc.get('schema')!r}")
        return cls(doc.get("families", {}))

    def render_prometheus(self) -> str:
        return render_prometheus(self)

    def counter_value(self, name: str, **labels) -> Union[int, float]:
        """Test/introspection helper: one sample's value (0 if absent)."""
        fam = self.families.get(name)
        if fam is None:
            return 0
        want = [labels.get(n, "") for n in fam["labelnames"]]
        for label_values, value in fam["samples"]:
            if list(label_values) == want:
                return value
        return 0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class MetricsRegistry:
    """A thread-safe, insertion-ordered collection of metric families."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    # Family resolution (get-or-create; idempotent) ----------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"{name} already registered as a {family.kind}"
                )
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{family.labelnames}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help, labelnames, self._lock, buckets
                )
                self._families[name] = family
        return family

    def family(self, metric: "Metric") -> MetricFamily:
        """The family ``metric`` declares, in this registry.

        The handle remembers the last registry it resolved against, so
        recording into the same registry again skips the declaration. It
        holds that registry weakly: a handle never keeps a finished
        per-chunk or per-batch registry (or its family) alive.
        """
        ref, family = metric._bound
        if ref() is self:
            return family
        family = self._family(
            metric.name, metric.kind, metric.help, metric.labelnames,
            metric.buckets,
        )
        metric._bound = (weakref.ref(self, metric._forget), family)
        return family

    # Snapshot / merge / reset ------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        families: dict[str, dict] = {}
        with self._lock:
            for name, family in self._families.items():
                samples = []
                for label_values, child in family._children.items():
                    if family.kind == "histogram":
                        value: object = {
                            "count": child.count,
                            "sum": child.sum,
                            "bounds": list(child.bounds),
                            "counts": list(child.counts),
                        }
                    else:
                        value = child.value
                    samples.append([list(label_values), value])
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": samples,
                }
        return MetricsSnapshot(families)

    def merge(
        self, other: Union["MetricsRegistry", MetricsSnapshot, dict]
    ) -> None:
        """Fold a snapshot (or another registry) into this registry.

        Counters and histograms accumulate; gauges take the incoming
        value. Call exactly once per worker snapshot — the caller owns
        the no-double-counting discipline.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        elif isinstance(other, dict):
            other = MetricsSnapshot.from_dict(other)
        with self._lock:
            for name, fam in other.families.items():
                kind = fam["kind"]
                if kind not in _VALID_KINDS:
                    raise ValueError(f"{name}: unknown metric kind {kind!r}")
                buckets = None
                if kind == "histogram" and fam["samples"]:
                    buckets = fam["samples"][0][1]["bounds"]
                family = self._family(
                    name, kind, fam["help"], fam["labelnames"], buckets
                )
                for label_values, value in fam["samples"]:
                    child = family.labels(*label_values)
                    if kind == "counter":
                        child.value += value
                    elif kind == "gauge":
                        child.value = value
                    else:
                        if list(child.bounds) != list(value["bounds"]):
                            raise ValueError(
                                f"{name}: histogram bucket bounds differ"
                            )
                        child.count += value["count"]
                        child.sum += value["sum"]
                        for i, n in enumerate(value["counts"]):
                            child.counts[i] += n

    def reset(self) -> None:
        """Zero every series in place (families and children survive)."""
        with self._lock:
            for family in self._families.values():
                for child in family._children.values():
                    if isinstance(child, Histogram):
                        child.counts = [0] * len(child.counts)
                        child.count = 0
                        child.sum = 0.0
                    else:
                        child.value = 0

    def as_dict(self) -> dict:
        return self.snapshot().as_dict()

    def render_prometheus(self) -> str:
        return self.snapshot().render_prometheus()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_number(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    text = f"{value:.10g}"
    return text


def _label_block(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def render_prometheus(
    source: Union[MetricsRegistry, MetricsSnapshot]
) -> str:
    """Render a registry or snapshot in the Prometheus text format.

    One ``# HELP`` / ``# TYPE`` pair per family, samples sorted by
    label values, histograms expanded to cumulative ``_bucket`` series
    plus exact ``_sum`` and ``_count``. The output ends with a newline
    as the format requires.
    """
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    lines: list[str] = []
    for name in sorted(snapshot.families):
        fam = snapshot.families[name]
        help_text = fam["help"] or name
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {fam['kind']}")
        labelnames = fam["labelnames"]
        for label_values, value in sorted(
            fam["samples"], key=lambda sample: sample[0]
        ):
            block = _label_block(labelnames, label_values)
            if fam["kind"] != "histogram":
                lines.append(f"{name}{block} {_format_number(value)}")
                continue
            cumulative = 0
            for bound, count in zip(
                list(value["bounds"]) + [float("inf")], value["counts"]
            ):
                cumulative += count
                le = _format_number(float(bound))
                bucket_labels = _label_block(
                    list(labelnames) + ["le"], list(label_values) + [le]
                )
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            lines.append(f"{name}_sum{block} {_format_number(value['sum'])}")
            lines.append(f"{name}_count{block} {value['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def emit_frame(registry: MetricsRegistry, seq: int, started: float) -> None:
    """Print one in-band ``repro-metrics/1`` frame line on stdout.

    The frame carries ``registry``'s cumulative snapshot as number
    ``seq``, stamped with the seconds since ``started`` (a
    :func:`time.monotonic` reading). ``repro serve-sql`` and ``repro
    serve --metrics-interval`` both emit exactly this shape.
    """
    frame = {
        "schema": METRICS_SCHEMA,
        "kind": "metrics-frame",
        "seq": seq,
        "elapsed": round(time.monotonic() - started, 3),
        "metrics": registry.snapshot().as_dict(),
    }
    print(json.dumps(frame), flush=True)


# ----------------------------------------------------------------------
# The active scope: this thread's registry and tracer
# ----------------------------------------------------------------------


class _Active(threading.local):
    """The one thread-local of :mod:`repro.obs`. Class defaults: a thread
    that never set one reads ``None`` cheaply."""

    registry: Optional[MetricsRegistry] = None
    #: The active :class:`repro.obs.trace.Tracer`, read by ``span()``.
    tracer = None


_ACTIVE = _Active()
_GLOBAL: Optional[MetricsRegistry] = None


def current_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are off.

    A thread-scoped registry (:class:`collecting`) shadows the process
    global (:func:`set_global_metrics`). Recording goes through declared
    handles; this is for callers that need the registry object itself.
    """
    return _ACTIVE.registry or _GLOBAL


def set_global_metrics(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install (or clear, with ``None``) the process-wide registry.

    Returns the previous global so callers can restore it. The global
    is what CLI commands and thread-mode service workers inherit.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


class collecting:
    """Activate ``registry`` and/or ``tracer`` for this thread's dynamic
    extent; the one scope of :mod:`repro.obs`.

    ``None`` leaves that slot as it is, so an optional registry needs no
    branch. Nests: exit restores both slots. The batch service runs each
    chunk under its own ``collecting`` block and merges the snapshot back
    exactly once; :func:`repro.obs.trace.tracing` is this scope for a
    tracer. ``as`` binds the registry, else the tracer.
    """

    __slots__ = ("registry", "tracer", "_previous")

    def __init__(self, registry: Optional[MetricsRegistry] = None, tracer=None):
        self.registry = registry
        self.tracer = tracer

    def __enter__(self):
        active = _ACTIVE
        self._previous = active.registry, active.tracer
        if self.registry is not None:
            active.registry = self.registry
        if self.tracer is not None:
            active.tracer = self.tracer
        return self.registry or self.tracer

    def __exit__(self, *exc) -> bool:
        _ACTIVE.registry, _ACTIVE.tracer = self._previous
        return False


# ----------------------------------------------------------------------
# Declared families
# ----------------------------------------------------------------------


class _Off:
    """The child a handle hands out while metrics are off."""

    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        pass

    set = observe = inc


_OFF = _Off()
#: A handle's ``_bound`` before it has resolved against any registry.
_UNBOUND = (lambda: None, None)


class Metric:
    """One declared family: name, kind, help text and label names.

    Made by :func:`counter`, :func:`gauge` and :func:`histogram`; records
    into the active registry, or nowhere when metrics are off.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_bound")

    def __init__(self, name, kind, help, labelnames, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        #: ``(weakref to registry, family)`` last resolved by
        #: MetricsRegistry.family; reset when that registry is collected.
        self._bound: tuple = _UNBOUND

    def _forget(self, ref) -> None:
        if self._bound[0] is ref:
            self._bound = _UNBOUND

    def labels(self, *values):
        """The child series for ``values`` (a no-op child when off)."""
        registry = _ACTIVE.registry or _GLOBAL
        if registry is None:
            return _OFF
        ref, family = self._bound
        if ref() is registry:  # the common case: one dict lookup
            child = family._children.get(values)
            if child is not None:
                return child
        return registry.family(self).labels(*values)

    # Unlabeled-family conveniences --------------------------------------

    def inc(self, n: Union[int, float] = 1) -> None:
        self.labels().inc(n)

    def set(self, value: Union[int, float]) -> None:
        self.labels().set(value)

    def observe(self, value: Union[int, float]) -> None:
        self.labels().observe(value)


_DECLARED: dict[str, Metric] = {}


def _declare(name, kind, help, labelnames, buckets=None) -> Metric:
    if name in _DECLARED:
        raise ValueError(f"{name} is already declared")
    if not help:
        raise ValueError(f"{name}: a declaration needs help text")
    metric = _DECLARED[name] = Metric(name, kind, help, labelnames, buckets)
    return metric


def counter(name: str, help: str, labelnames: Sequence[str] = ()) -> Metric:
    """Declare a counter family (once per process, at module level)."""
    return _declare(name, "counter", help, labelnames)


def gauge(name: str, help: str, labelnames: Sequence[str] = ()) -> Metric:
    """Declare a gauge family (once per process, at module level)."""
    return _declare(name, "gauge", help, labelnames)


def histogram(
    name: str,
    help: str,
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> Metric:
    """Declare a histogram family (once per process, at module level)."""
    return _declare(name, "histogram", help, labelnames, buckets)


def declared() -> tuple[Metric, ...]:
    """Every family declared so far, in declaration order."""
    return tuple(_DECLARED.values())


class timed:
    """Time a block (``t.seconds``); the one shared timing helper.

    ``target`` is ``None`` (just measure) or anything with ``observe``,
    such as a declared histogram: ``with timed(QUERY_SECONDS): run()``.
    """

    __slots__ = ("target", "started", "seconds")

    def __init__(self, target=None):
        self.target = target
        self.seconds = 0.0

    def __enter__(self) -> "timed":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self.started
        if self.target is not None:
            self.target.observe(self.seconds)
        return False
