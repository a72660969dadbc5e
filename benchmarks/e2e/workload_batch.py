"""``batch-cold``: every request a distinct fingerprint, in process.

Fifteen calls of ``api.rewrite_batch`` (one per segment) with the
**default** ``mode="auto"`` and a fresh service per call: parse, normalize, search, rank and the
service's grouping/chunking/mode choice do the work; ``repro.serving``
is bypassed entirely.
"""

from __future__ import annotations

import gc
import random
import time

from repro import api
from repro.obs import MetricsRegistry, collecting

import inputs
import layers
import oracle
from common import SETUP_REPEATS, Config, WorkloadResult, harness_peak_rss_mb
from stats import (
    Measured,
    SpanLog,
    add_trace_children,
    best_of,
    median_of,
    percentile,
    ratio,
    split,
)

now = time.perf_counter

#: Nominal requests/s under ``mode="auto"`` on the 2-core reference host.
RATE = 480.0
#: Requests per ``rewrite_batch`` call, and the most calls per window.
PER_SEGMENT = 480
MAX_SEGMENTS = 15


def _setup(cfg: Config, n_ops: int):
    """Generate the scenarios and requests, then warm up (untimed)."""
    started = now()
    n_warm = cfg.warmup(n_ops)
    scenarios = inputs.batch_scenarios(cfg.seed, n_ops + n_warm)
    requests = inputs.batch_requests(scenarios)
    api.rewrite_batch(requests[n_ops:])
    return scenarios[:n_ops], requests[:n_ops], now() - started


def _run_segments(
    requests, segments, result: WorkloadResult, deadline, registry=None
):
    """One ``rewrite_batch`` call per segment; returns (responses, walls,
    reports). Failed requests count as attempted and carry no latency."""
    responses, walls, reports = [], [], []
    for segment in split(requests, segments):
        start = now()
        if registry is None:
            batch = api.rewrite_batch(segment)
        else:
            with collecting(registry):
                batch = api.rewrite_batch(segment)
        walls.append(now() - start)
        responses.extend(batch.responses)
        reports.append(batch.report)
        if now() > deadline:
            result.truncated = True
            break
    return responses, walls, reports


def _ok(response) -> bool:
    return (
        response.error is None
        and not response.exhausted
        and not response.degraded
    )


def run(cfg: Config) -> WorkloadResult:
    result = WorkloadResult(cfg.workload)
    n_ops, segments = cfg.plan(RATE, PER_SEGMENT, MAX_SEGMENTS)
    setup_seconds = []
    for _ in range(1 if cfg.traced else SETUP_REPEATS[cfg.workload]):
        scenarios, requests, seconds = _setup(cfg, n_ops)
        setup_seconds.append(seconds)
    result.metrics["setup_s"] = median_of(setup_seconds)
    # The harness's own inputs (thousands of scenarios) must not weigh
    # on the program's garbage collector inside the timed window.
    gc.collect()
    gc.freeze()

    responses, walls, reports = _run_segments(
        requests, segments, result, cfg.hard_deadline()
    )
    per_segment = len(requests) // segments
    throughput, p50, p99 = [], [], []
    for index, wall in enumerate(walls):
        segment = responses[index * per_segment:(index + 1) * per_segment]
        good = [r.elapsed for r in segment if _ok(r)]
        throughput.append(ratio(len(good), wall))
        p50.append(percentile(good, 50) * 1e3)
        p99.append(percentile(good, 99) * 1e3)
    result.attempted = len(responses)
    result.failed = sum(1 for r in responses if not _ok(r))
    result.metrics.update(
        {
            "throughput_rps": best_of(throughput, "higher"),
            "latency_p50_ms": best_of(p50),
            "latency_p99_ms": best_of(p99),
            "answered_share": Measured(
                ratio(
                    sum(1 for r in responses if r.rewritings), len(responses)
                )
            ),
        }
    )
    result.counts.update(
        {
            "requests": len(responses),
            "segments": segments,
            "answered": sum(1 for r in responses if r.rewritings),
            "mode": reports[0]["mode"],
            "groups": sum(r["groups"] for r in reports),
        }
    )

    rng = random.Random(f"samples:{cfg.seed}")
    picks = rng.sample(
        range(len(responses)), min(oracle.BATCH_SAMPLES, len(responses))
    )
    checked, problems = oracle.check_batch(
        [(scenarios[i], responses[i]) for i in picks], corrupt=cfg.corrupt
    )
    result.counts["oracle_sampled"] = len(picks)
    result.counts["oracle_pairs_checked"] = checked
    result.problems.extend(problems)

    if cfg.traced:
        _layers(cfg, scenarios, requests, segments, walls, responses, result)
    result.metrics["peak_rss_mb"] = Measured(harness_peak_rss_mb())
    return result


def _layers(
    cfg, scenarios, requests, segments, walls, responses, result
) -> None:
    """The traced and the metered pass over the same requests."""
    m = result.metrics
    deadline = cfg.hard_deadline()

    traced_requests = inputs.batch_requests(scenarios, trace=True)
    traced, traced_walls, _ = _run_segments(
        traced_requests, segments, result, deadline
    )
    log = SpanLog()
    cursor = 0.0
    for index, response in enumerate(traced):
        if response.trace is None:
            continue
        rid = f"b{index}"
        log.add(rid, "request", cursor, cursor + response.elapsed, None)
        add_trace_children(log, rid, "request", cursor, response.trace.root)
        cursor += response.elapsed
    log.write(cfg.out_dir / f"spans-{cfg.workload}.jsonl")
    m.update(layers.planner_timings(log))

    registry = MetricsRegistry()
    metered, metered_walls, _ = _run_segments(
        requests, segments, result, deadline, registry
    )
    snapshot = registry.snapshot().as_dict()
    m.update(layers.planner_counts(None, snapshot))
    for name, other in (("traced", traced), ("metered", metered)):
        same = [bool(r.rewritings) for r in other] == [
            bool(r.rewritings) for r in responses
        ]
        if not same:
            result.problems.append(f"{name} pass answered differently")

    stride = max(1, len(requests) // layers.PROBE_SAMPLES)
    picks = range(0, len(requests), stride)
    m.update(
        layers.probe_rewrite_layers(
            [(requests[i].query, requests[i].catalog) for i in picks]
        )
    )
    # On this workload the two overheads come from whole passes of the
    # same requests in the same (default) mode, not from the sample.
    m["obs.trace_overhead_ratio"] = Measured(
        ratio(sum(traced_walls), sum(walls))
    )
    m["obs.metrics_overhead_ratio"] = Measured(
        ratio(sum(metered_walls), sum(walls))
    )
    m.update(layers.probe_service(requests[: len(requests) // segments]))
    result.counts["spans"] = len(log.records)
