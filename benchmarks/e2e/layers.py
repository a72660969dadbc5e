"""Per-layer measurement from outside: timed calls into public functions.

Two kinds of measurement, both used only by traced runs:

*replay* (:func:`replay_serving`)
    a workload's own serve stream pushed, in process and in order,
    through the public functions the daemon composes per request —
    ``parse_line`` + ``request_from_wire`` → ``AdmissionController.admit``
    → ``PlannerCache.run`` (→ ``tier.lookup``) → ``tier.publish`` →
    ``api.to_envelope`` + ``json.dumps`` → ``release`` — with one span
    per call and the program's own ``obs.trace`` tree attached under
    ``run``. State (planner cache, memo tier, maintained views) evolves
    exactly as in the daemon, so warm/cold path counts must match the
    daemon's own ``metrics`` op; the serve workload checks that.

*sample probes* (:func:`probe_rewrite_layers`, :func:`probe_service`)
    stateless per-call costs of the front-end and search layers on a
    sample of the workload's own (SQL text, catalog) pairs.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Optional, Sequence

from repro import Closure, Database, RewriteRequest, api, block_to_sql
from repro.blocks import normalize_select
from repro.catalog.load import load_schema
from repro.maintenance import (
    MaintainedView,
    apply_change,
    register_delta_listener,
)
from repro.mappings import enumerate_mappings
from repro.obs import MetricsRegistry, collecting
from repro.errors import UnsupportedSQLError
from repro.service import chunk_groups, group_requests
from repro.serving import (
    AdmissionController,
    PlannerCache,
    create_memo_tier,
    parse_line,
    request_from_wire,
    resolve_strategy,
    serving_group_key,
)
from repro.sqlparser import parse_select, tokenize
from repro.strategies import cohen_nutt_rewritings

from stats import (
    Measured,
    SpanLog,
    add_trace_children,
    family_total,
    p50_p99,
    ratio,
)

now = time.perf_counter
US = 1e6
#: (SQL text, catalog) pairs the stateless probes run on.
PROBE_SAMPLES = 120


class TimedTier:
    """The memo tier behind a span-recording proxy.

    ``PlannerCache`` and the replay call the tier only through this
    object, so ``lookup`` / ``publish`` / ``invalidate_views`` are timed
    at the tier's public boundary without touching ``repro.serving``.
    """

    def __init__(self, tier, log: SpanLog):
        self._tier = tier
        self._log = log
        #: Request the next calls belong to; ``None`` = do not record.
        self.request: Optional[str] = None

    def epoch(self) -> int:
        return self._tier.epoch()

    def _timed(self, name: str, parent: str, call, *args):
        start = now()
        out = call(*args)
        if self.request is not None:
            self._log.add(self.request, name, start, now(), parent)
        return out

    def lookup(self, key):
        return self._timed("lookup", "run", self._tier.lookup, key)

    def publish(self, key, view_names, memo):
        return self._timed(
            "publish", "request", self._tier.publish, key, view_names, memo
        )

    def invalidate_views(self, names):
        return self._timed(
            "invalidate", "apply_change", self._tier.invalidate_views, names
        )

    def release(self) -> None:
        self._tier.close()
        self._tier.unlink()


def replay_serving(schema_sql: str, warm_ops, ops, log: SpanLog) -> dict:
    """Replay a serve stream in process; returns counts and side samples.

    ``warm_ops`` run first, unrecorded, so the recorded ops meet the
    same planner/memo state the daemon had after its warm-up.
    """
    catalog, _ = load_schema(schema_sql)
    database = Database(catalog)
    tier = TimedTier(create_memo_tier(shared=True), log)
    admission = AdmissionController(queue_limit=64)
    cache = PlannerCache(tier)
    maintainers: dict[str, MaintainedView] = {}
    # A mirror of PlannerCache's LRU, driven by the (key, path) pairs
    # run() returns, so evictions are counted without reading privates.
    lru: OrderedDict = OrderedDict()
    side = {
        "group_key": [], "request_bytes": [], "response_bytes": [],
        "export_entries": [], "publish_bytes": [], "queue_depth_max": 0,
        "planner_evictions": 0, "paths": {}, "views_invalidated": [],
        "refused": 0,
    }

    def on_delta(event) -> None:
        # What RewriteDaemon._on_delta does, through the timed tier.
        if not event.relevant or event.maintainer.db is not database:
            return
        catalog.set_row_count(event.view_name, len(event.maintainer.table()))
        tier.invalidate_views([event.view_name])
        side["views_invalidated"][-1] += 1

    def rewrite(op, rid: Optional[str], line_no: int) -> None:
        line = json.dumps({**op.wire, "id": rid or f"w{line_no}"})
        tier.request = rid
        t0 = now()
        obj = parse_line(line, line_no)
        request = request_from_wire(obj, catalog, line_no)
        resolve_strategy(obj.get("strategy"))
        t1 = now()
        refusal = admission.admit("default")
        t2 = now()
        if refusal is not None:
            side["refused"] += 1
            return
        side["queue_depth_max"] = max(side["queue_depth_max"], admission.depth)
        response, key, view_names, export, path = cache.run(
            replace(request, trace=True), obj.get("strategy")
        )
        t3 = now()
        if export:
            tier.publish(key, view_names, export)
        t4 = now()
        doc = api.to_envelope(
            replace(response, trace=None),
            kind="rewrite",
            request_id=request.request_id,
        )
        payload = (json.dumps(doc) + "\n").encode("utf-8")
        t5 = now()
        admission.release("default")
        t6 = now()

        if path == "warm_local":
            lru.move_to_end(key)
        else:
            lru.pop(key, None)
            lru[key] = True
            while len(lru) > PlannerCache.MAX_PLANNERS:
                lru.popitem(last=False)
                if rid is not None:
                    side["planner_evictions"] += 1
        if rid is None:
            return
        # Fingerprinting happens inside run(); timed again on its own,
        # outside the request's root span.
        start = now()
        serving_group_key(request)
        side["group_key"].append(now() - start)
        side["request_bytes"].append(len(line) + 1)
        side["paths"][path] = side["paths"].get(path, 0) + 1
        side["response_bytes"].append(len(payload))
        side["export_entries"].append(len(export))
        if len(side["export_entries"]) % 10 == 1:
            side["publish_bytes"].append(
                len(pickle.dumps(export, pickle.HIGHEST_PROTOCOL))
            )
        log.add(rid, "request", t0, t6, None, tag=op.cls)
        log.add(rid, "wire_parse", t0, t1, "request")
        log.add(rid, "admit", t1, t2, "request")
        log.add(rid, "run", t2, t3, "request", tag=path)
        log.add(rid, "encode", t4, t5, "request")
        log.add(rid, "release", t5, t6, "request")
        if response.trace is not None:
            add_trace_children(log, rid, "run", t2, response.trace.root)

    def update(op, rid: Optional[str], line_no: int) -> None:
        line = json.dumps({**op.wire, "id": rid or f"w{line_no}"})
        tier.request = rid
        side["views_invalidated"].append(0)
        t0 = now()
        obj = parse_line(line, line_no)
        table = obj["table"]
        for name, view in catalog.views.items():
            if name in maintainers:
                continue
            if any(rel.name == table for rel in view.block.from_):
                try:
                    maintainers[name] = MaintainedView(view, database)
                except UnsupportedSQLError:
                    pass
        reading = [
            m for name, m in maintainers.items()
            if any(rel.name == table for rel in catalog.view(name).block.from_)
        ]
        t1 = now()
        apply_change(
            reading,
            table,
            [tuple(r) for r in obj.get("insert", ())],
            [tuple(r) for r in obj.get("delete", ())],
            database=database,
        )
        t2 = now()
        json.dumps(api.to_envelope({"table": table}, kind="update",
                                   request_id=obj.get("id")))
        t3 = now()
        if rid is None:
            side["views_invalidated"].pop()
            return
        log.add(rid, "update", t0, t3, None, tag="update")
        log.add(rid, "apply_change", t1, t2, "update")

    registry = MetricsRegistry()
    unsubscribe = register_delta_listener(on_delta)
    try:
        with collecting(registry):
            for i, op in enumerate(warm_ops):
                (update if op.cls == "update" else rewrite)(op, None, i)
            before = registry.snapshot().as_dict()
            epoch_before = tier.epoch()
            for i, op in enumerate(ops):
                (update if op.cls == "update" else rewrite)(op, f"r{i}", i)
        side["epoch_bumps"] = tier.epoch() - epoch_before
    finally:
        unsubscribe()
        tier.release()
    side["before"] = before
    side["after"] = registry.snapshot().as_dict()
    return side


def delta(before: dict, after: dict, family: str, /, **labels) -> float:
    return family_total(after, family, **labels) - family_total(
        before, family, **labels
    )


def planner_counts(before: Optional[dict], after: dict) -> dict[str, Measured]:
    """core.planner / constraints counts from a metrics-snapshot delta."""

    def d(family, /, **labels):
        return delta(before or {}, after, family, **labels)

    admitted = d("repro_planner_views_total", outcome="admitted")
    pruned = d("repro_planner_views_total", outcome="pruned")
    kept = d("repro_planner_candidates_total", outcome="kept")
    duplicate = d("repro_planner_candidates_total", outcome="duplicate")
    out = {
        "core.planner.searches": d("repro_planner_searches_total"),
        "core.planner.nodes_expanded": d("repro_planner_nodes_expanded_total"),
        "core.planner.views_considered": admitted + pruned,
        "core.planner.prune_ratio": ratio(pruned, admitted + pruned),
        "core.planner.candidates_accepted_ratio": ratio(
            kept, kept + duplicate
        ),
    }
    for label, family in (
        ("closure", "closure"),
        ("canonical", "canonical_key"),
        ("residual", "residual"),
        ("substitution", "substitution"),
    ):
        hits = d("repro_planner_memo_total", family=family, outcome="hit")
        misses = d("repro_planner_memo_total", family=family, outcome="miss")
        out[f"core.planner.memo_hit_ratio.{label}"] = ratio(
            hits, hits + misses
        )
    out["constraints.closure_memo_hit_ratio"] = out[
        "core.planner.memo_hit_ratio.closure"
    ]
    return {name: Measured(value) for name, value in out.items()}


def planner_timings(log: SpanLog) -> dict[str, Measured]:
    """core.planner / core.rewriter timings from attached trace spans."""
    out: dict[str, Measured] = {}
    for metric, span_name in (
        ("core.planner.search_us", "search"),
        ("core.planner.signature_probe_us", "signature_probe"),
        ("core.planner.checks_us", "checks"),
        ("core.planner.merge_us", "merge"),
        ("core.rewriter.rank_us", "rank"),
    ):
        out.update(p50_p99(metric, log.durations(span_name), US))
    return out


# ----------------------------------------------------------------------
# Sample probes


def probe_rewrite_layers(samples: Sequence[tuple]) -> dict[str, Measured]:
    """Front-end and search layer costs on ``(sql, catalog)`` samples.

    Each call is made alone on a fresh engine, so a value is the layer's
    cost per call on this workload's inputs, not what a warm planner
    pays.
    """
    times = {
        name: []
        for name in (
            "sqlparser.parse_us", "blocks.normalize_us", "blocks.to_sql_us",
            "constraints.closure_build_us", "mappings.enumerate_us",
            "dialects.emit_us", "service.executor.request_us",
            "strategies.cohen_nutt_search_us",
        )
    }
    tokens = 0
    mappings = rewritings = extras = emitted = 0
    plain = traced = metered = cohen = 0.0

    def timed(name, call):
        start = now()
        out = call()
        times[name].append(now() - start)
        return out

    for sql, catalog in samples:
        tokens += len(tokenize(sql))
        stmt = timed("sqlparser.parse_us", lambda: parse_select(sql))
        block = timed(
            "blocks.normalize_us",
            lambda: normalize_select(stmt, catalog).validate(),
        )
        timed("blocks.to_sql_us", lambda: block_to_sql(block))
        timed("constraints.closure_build_us", lambda: Closure(block.where))
        views = list(catalog.views.values())
        mappings += timed(
            "mappings.enumerate_us",
            lambda: sum(
                1 for v in views for _ in enumerate_mappings(v.block, block)
            ),
        )
        # One untimed call first: the process-wide closure and canonical
        # caches then look the same to all four timed variants below.
        api.rewrite(sql, catalog)
        response = timed(
            "service.executor.request_us", lambda: api.rewrite(sql, catalog)
        )
        plain += times["service.executor.request_us"][-1]
        rewritings += len(response.rewritings)
        target = response.best().query if response.rewritings else block
        emitted += len(
            timed(
                "dialects.emit_us",
                lambda: block_to_sql(target, dialect="sqlite"),
            )
        )
        start = now()
        api.rewrite(sql, catalog, trace=True)
        traced += now() - start
        start = now()
        api.rewrite(sql, catalog, collect_metrics=True)
        metered += now() - start
        start = now()
        complete = api.rewrite(sql, catalog, strategy="cohen_nutt")
        cohen += now() - start
        extras += len(complete.rewritings) - len(response.rewritings)
        timed(
            "strategies.cohen_nutt_search_us",
            lambda: cohen_nutt_rewritings(block, views),
        )

    n = len(samples)
    parse_seconds = sum(times["sqlparser.parse_us"])
    out: dict[str, Measured] = {}
    for name, values in times.items():
        out.update(p50_p99(name, values, US))
    out.update(
        {
            "sqlparser.tokens_per_s": Measured(ratio(tokens, parse_seconds)),
            "mappings.mappings_per_request": Measured(ratio(mappings, n)),
            "core.rewriter.rewritings_per_request": Measured(
                ratio(rewritings, n)
            ),
            "dialects.emitted_bytes": Measured(ratio(emitted, n)),
            "strategies.cohen_nutt_extras": Measured(extras),
            "strategies.overhead_ratio": Measured(ratio(cohen, plain)),
            "obs.trace_overhead_ratio": Measured(ratio(traced, plain)),
            "obs.metrics_overhead_ratio": Measured(ratio(metered, plain)),
        }
    )
    return out


MODE_CODES = {"serial": 0, "thread": 1, "process": 2}


def probe_service(requests: Sequence[RewriteRequest]) -> dict[str, Measured]:
    """service.batcher / service.pool on one batch of the workload's own
    requests: grouping cost, and throughput under each backend."""
    group_times = []
    for _ in range(5):
        start = now()
        groups = group_requests(requests)
        group_times.append(now() - start)
    workers = os.cpu_count() or 1
    out = p50_p99("service.batcher.group_us", group_times, US)
    out["service.batcher.groups"] = Measured(len(groups))
    out["service.batcher.chunks"] = Measured(
        len(chunk_groups(groups, workers))
    )
    for mode in ("serial", "thread", "process"):
        start = now()
        api.rewrite_batch(requests, mode=mode)
        out[f"service.pool.rps_{mode}"] = Measured(
            ratio(len(requests), now() - start)
        )
    registry = MetricsRegistry()
    with collecting(registry):
        result = api.rewrite_batch(requests)
    out["service.pool.mode_chosen"] = Measured(
        MODE_CODES[result.report["mode"]]
    )
    out["service.pool.chunk_demotions"] = Measured(
        family_total(
            registry.snapshot().as_dict(),
            "repro_service_chunk_demotions_total",
        )
    )
    return out
