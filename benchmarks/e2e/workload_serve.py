"""``serve-hot`` and ``serve-mixed``: a real ``repro serve`` subprocess.

Closed loop, one connection, depth 1: the client sends the next op only
after the previous reply. See README.md for why (two client threads on
a 2-core host measured the generator's GIL, not the daemon).
"""

from __future__ import annotations

import random
import time

from repro import RewriteRequest
from repro.catalog.load import load_schema
from repro.errors import ReproError

import inputs
import layers
import oracle
from common import SETUP_REPEATS, Config, WorkloadResult
from daemon import DaemonProcess, shm_segments
from stats import (
    COARSE,
    Measured,
    SpanLog,
    best_of,
    family_total,
    histogram_sum,
    median_of,
    p50_p99,
    percentile,
    ratio,
)

now = time.perf_counter

#: Nominal closed-loop rates (ops/s on the 2-core reference host) that
#: turn ``--seconds`` into an operation count.
RATE = {"serve-hot": 300.0, "serve-mixed": 170.0}
#: Operations per segment (serve-mixed: 1 update, 6 pinned, 12 ad hoc,
#: 41 hot) and the most segments a window is cut into.
PER_SEGMENT = {"serve-hot": 100, "serve-mixed": 60}
MAX_SEGMENTS = 45
REWRITE_CLASSES = ("hot", "post_update", "adhoc", "pinned")
#: Where each class p50 is reported (they were end-to-end candidates;
#: see README.md "Workload-scoped metrics").
CLASS_METRICS = {
    "hot": "serving.worker.hot_p50_ms",
    "adhoc": "core.planner.adhoc_p50_ms",
    "pinned": "serving.memo.pinned_p50_ms",
    "post_update": "maintenance.post_update_p50_ms",
    "update": "maintenance.update_p50_ms",
}
PINGS = 300


class _Setup:
    """A started, warmed daemon plus the stream it is about to serve."""

    def __init__(self, cfg: Config, n_ops: int, segments: int):
        started = now()
        schema_path = cfg.out_dir / f"schema-{cfg.workload}.sql"
        schema_path.write_text(inputs.STAR_SCHEMA_SQL)
        self.warm_ops, self.ops = inputs.serve_stream(
            cfg.workload, cfg.seed, n_ops, segments, cfg.warmup(n_ops)
        )
        self.daemon = DaemonProcess(schema_path)
        try:
            for op in self.warm_ops:
                self.daemon.client.request(op.wire)
        except BaseException:
            self.daemon.stop()
            raise
        self.seconds = now() - started


def _drive(client, ops, sample_at: set, result: WorkloadResult, deadline):
    """Send ``ops`` one by one; returns per-op records and sampled docs.

    A record is ``(cls, start, end, ok, answered)``. Failed or refused
    ops stay in the records (they count as attempted) but carry no
    latency into any percentile.
    """
    records = []
    samples = []
    request = client.request
    for index, op in enumerate(ops):
        start = now()
        doc = request(op.wire)
        end = now()
        if op.cls == "update":
            ok, answered = bool(doc.get("ok")), False
        else:
            ok = oracle.response_problem(doc) is None
            answered = ok and bool(doc["result"]["rewritings"])
        records.append((op.cls, start, end, ok, answered))
        if index in sample_at:
            samples.append((op.wire, doc))
        if end > deadline:
            result.truncated = True
            break
    return records, samples


def _segment_metrics(records, segments: int) -> dict[str, Measured]:
    """Throughput and p50 per segment; class p50s and the p99 per
    coarse group of segments (they need the samples). A truncated run
    keeps its whole segments only."""
    size = max(1, len(records) // segments)
    whole = [
        records[i:i + size] for i in range(0, len(records) - size + 1, size)
    ]

    def latencies(part, classes):
        return [r[2] - r[1] for r in part if r[3] and r[0] in classes]

    throughput, p50 = [], []
    for segment in whole:
        wall = segment[-1][2] - segment[0][1]
        throughput.append(ratio(sum(1 for r in segment if r[3]), wall))
        p50.append(percentile(latencies(segment, REWRITE_CLASSES), 50) * 1e3)
    group = max(1, len(whole) // COARSE)
    coarse = [
        [r for segment in whole[i:i + group] for r in segment]
        for i in range(0, len(whole), group)
    ]
    metrics = {
        "throughput_rps": best_of(throughput, "higher"),
        "latency_p50_ms": best_of(p50),
        "latency_p99_ms": best_of(
            percentile(latencies(part, REWRITE_CLASSES), 99) * 1e3
            for part in coarse
        ),
    }
    for cls, name in CLASS_METRICS.items():
        values = [
            percentile(own, 50) * 1e3
            for own in (latencies(part, (cls,)) for part in coarse)
            if own
        ]
        if cls == "update" and values:
            # Updates get dearer through the window (the maintained views
            # grow), so groups are not alike: one p50 over all of them.
            everything = [r for segment in whole for r in segment]
            metrics[name] = Measured(
                percentile(latencies(everything, (cls,)), 50) * 1e3
            )
        elif values:
            metrics[name] = best_of(values)
    return metrics


def _account(records, result: WorkloadResult) -> None:
    rewrites = [r for r in records if r[0] in REWRITE_CLASSES]
    result.attempted = len(records)
    result.failed = sum(1 for r in records if not r[3])
    result.metrics["answered_share"] = Measured(
        ratio(sum(1 for r in rewrites if r[4]), len(rewrites))
    )
    result.counts["ops"] = len(records)
    for cls in CLASS_METRICS:
        result.counts[f"ops_{cls}"] = sum(1 for r in records if r[0] == cls)


def _gate(cfg: Config, samples, result: WorkloadResult) -> None:
    tables = inputs.star_tables(cfg.seed, oracle.ORACLE_SALES_ROWS)
    rewrites = [(w, d) for w, d in samples if w["op"] == "rewrite"]
    checked, problems = oracle.check_served(
        rewrites, inputs.STAR_SCHEMA_SQL, tables, corrupt=cfg.corrupt
    )
    result.counts["oracle_sampled"] = len(rewrites)
    result.counts["oracle_pairs_checked"] = checked
    result.problems.extend(problems)


def run(cfg: Config) -> WorkloadResult:
    result = WorkloadResult(cfg.workload)
    n_ops, segments = cfg.plan(
        RATE[cfg.workload], PER_SEGMENT[cfg.workload], MAX_SEGMENTS
    )
    shm_before = shm_segments()
    repeats = 1 if cfg.traced else SETUP_REPEATS[cfg.workload]
    setup_seconds = []
    setup = None
    for _ in range(repeats):
        if setup is not None:
            setup.daemon.stop()
        setup = _Setup(cfg, n_ops, segments)
        setup_seconds.append(setup.seconds)
    result.metrics["setup_s"] = median_of(setup_seconds)
    daemon, ops = setup.daemon, setup.ops

    rng = random.Random(f"samples:{cfg.seed}")
    sample_at = set(
        rng.sample(range(len(ops)), min(oracle.SERVE_SAMPLES, len(ops)))
    )
    try:
        before = daemon.client.metrics()["result"]["metrics"]
        records, samples = _drive(
            daemon.client, ops, sample_at, result, cfg.hard_deadline()
        )
        after = daemon.client.metrics()["result"]["metrics"]
        pings = []
        for _ in range(PINGS if cfg.traced else 0):
            start = now()
            daemon.client.ping()
            pings.append(now() - start)
        result.metrics["peak_rss_mb"] = Measured(daemon.peak_rss_mb())
    except (ReproError, OSError) as error:
        result.problems.append(f"transport: {error}")
        result.attempted = max(result.attempted, 1)
        result.failed += 1
        return result
    finally:
        daemon.stop()
        leaked = shm_segments() - shm_before
        if leaked:
            result.problems.append(f"leaked /dev/shm segments: {leaked}")

    _account(records, result)
    result.metrics.update(_segment_metrics(records, segments))
    result.counts["segments"] = segments
    _gate(cfg, samples, result)
    if cfg.traced:
        _layers(cfg, setup, records, before, after, pings, result)
    return result


# ----------------------------------------------------------------------
# The traced half: daemon-side counts, then the in-process replay.


def _layers(cfg, setup, records, before, after, pings, result) -> None:
    log = SpanLog()
    side = layers.replay_serving(
        inputs.STAR_SCHEMA_SQL, setup.warm_ops, setup.ops[:len(records)], log
    )
    log.write(cfg.out_dir / f"spans-{cfg.workload}.jsonl")
    m = result.metrics

    def daemon_delta(family, /, **labels):
        return layers.delta(before, after, family, **labels)

    # Counts: the daemon's metrics op must agree with the replay.
    for path in ("warm_local", "warm_shared", "cold"):
        served = daemon_delta("repro_serving_planner_path_total", path=path)
        replayed = side["paths"].get(path, 0)
        m[f"serving.worker.path_{path}"] = Measured(served)
        if served != replayed:
            result.problems.append(
                f"path {path}: daemon counted {served}, replay {replayed}"
            )
    planner = layers.planner_counts(before, after)
    replayed_planner = layers.planner_counts(side["before"], side["after"])
    for name in ("core.planner.searches", "core.planner.nodes_expanded"):
        if planner[name].value != replayed_planner[name].value:
            result.problems.append(
                f"{name}: daemon {planner[name].value}, "
                f"replay {replayed_planner[name].value}"
            )
    m.update(planner)
    epoch_bumps = daemon_delta("repro_serving_epoch")
    if epoch_bumps != side["epoch_bumps"]:
        result.problems.append(
            f"epoch bumps: daemon {epoch_bumps}, replay {side['epoch_bumps']}"
        )

    # serving.client / serving.daemon
    gaps = [b[1] - a[2] for a, b in zip(records, records[1:])]
    m.update(p50_p99("serving.client.rtt_floor_us", pings, 1e6))
    m.update(p50_p99("serving.client.generator_us", gaps, 1e6))
    served_n = daemon_delta("repro_serving_request_seconds")
    served_s = histogram_sum(after, "repro_serving_request_seconds") - (
        histogram_sum(before, "repro_serving_request_seconds")
    )
    server_ms = ratio(served_s, served_n) * 1e3
    client = [
        r[2] - r[1] for r in records if r[3] and r[0] in REWRITE_CLASSES
    ]
    client_p50 = percentile(client, 50) * 1e3
    m["serving.daemon.server_side_ms_mean"] = Measured(server_ms)
    # Mean against mean, both over the whole window.
    m["serving.daemon.overhead_ms"] = Measured(
        ratio(sum(client), len(client)) * 1e3 - server_ms
    )

    # The replay's spans, layer by layer.
    stages = {
        "serving.protocol.parse_us": log.durations("wire_parse"),
        "serving.admission.admit_us": log.durations("admit"),
        "serving.memo.publish_us": log.durations("publish"),
        "serving.memo.lookup_us": log.durations("lookup"),
        "serving.memo.invalidate_us": log.per_request("invalidate"),
        "serving.envelope.encode_us": log.durations("encode"),
        "serving.protocol.group_key_us": side["group_key"],
        "maintenance.apply_change_us": log.self_times().get("apply_change", []),
    }
    for path in ("warm_local", "warm_shared", "cold"):
        stages[f"serving.worker.run_{path}_us"] = log.durations("run", path)
    for name, values in stages.items():
        m.update(p50_p99(name, values, 1e6))
    m.update(layers.planner_timings(log))

    def mean(values):
        return Measured(ratio(sum(values), len(values)))

    lookups_hit = daemon_delta(
        "repro_serving_shared_memo_lookups_total", outcome="hit"
    )
    lookups = daemon_delta("repro_serving_shared_memo_lookups_total")
    m.update(
        {
            "serving.protocol.request_bytes": mean(side["request_bytes"]),
            "serving.envelope.response_bytes": mean(side["response_bytes"]),
            "serving.memo.export_entries": mean(side["export_entries"]),
            "serving.memo.publish_bytes": mean(side["publish_bytes"]),
            "serving.memo.lookup_hit_ratio": Measured(
                ratio(lookups_hit, lookups)
            ),
            "serving.memo.evictions": Measured(
                daemon_delta("repro_serving_shared_memo_evictions_total")
            ),
            "serving.memo.entries": Measured(
                family_total(after, "repro_serving_shared_memo_entries")
            ),
            "serving.memo.epoch_bumps": Measured(epoch_bumps),
            "serving.admission.refused": Measured(
                daemon_delta("repro_serving_admission_total")
                - daemon_delta(
                    "repro_serving_admission_total", outcome="admitted"
                )
            ),
            "serving.admission.queue_depth_max": Measured(
                side["queue_depth_max"]
            ),
            "serving.worker.planner_evictions": Measured(
                side["planner_evictions"]
            ),
            "maintenance.views_invalidated_per_update": mean(
                side["views_invalidated"]
            ),
        }
    )
    # What the waterfall does not explain: one closed-loop request is the
    # socket round trip plus the sequential stages of the replay.
    explained_us = m["serving.client.rtt_floor_us_p50"].value + sum(
        percentile(log.durations(name), 50) * 1e6
        for name in ("wire_parse", "admit", "run", "publish", "encode",
                     "release")
    )
    m["serving.daemon.unattributed_share"] = Measured(
        1.0 - ratio(explained_us / 1e3, client_p50)
    )

    # Stateless layer probes on the stream's own distinct texts.
    catalog, _ = load_schema(inputs.STAR_SCHEMA_SQL)
    texts = list(
        dict.fromkeys(
            op.wire["sql"] for op in setup.ops if op.cls != "update"
        )
    )[: layers.PROBE_SAMPLES]
    m.update(layers.probe_rewrite_layers([(t, catalog) for t in texts]))
    m.update(
        layers.probe_service(
            [RewriteRequest(query=t, catalog=catalog) for t in texts]
        )
    )
    result.counts["replayed_ops"] = len(records)
    result.counts["spans"] = len(log.records)
