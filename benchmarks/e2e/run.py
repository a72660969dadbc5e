#!/usr/bin/env python3
"""The repo's benchmark: four sustained workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--quick] [--out DIR]

Prints every metric by name with its unit, checks sampled outputs
against SQLite, and exits non-zero on a correctness failure. With
``--workload`` the last line of standard output is the one-object JSON
result the benchmark driver reads (``BENCHMARK.json`` at the repo root
names the metrics). See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

try:
    import repro  # noqa: E402,F401
except ImportError:
    # No result line: the program under test is not in this directory.
    raise SystemExit(
        "benchmarks/e2e/run.py: cannot import repro; run it from a "
        "checkout that has src/repro"
    )

import common  # noqa: E402
import supervise  # noqa: E402
import workload_batch  # noqa: E402
import workload_serve  # noqa: E402
import workload_warehouse  # noqa: E402
from stats import Measured  # noqa: E402

RUNNERS = {
    "serve-hot": workload_serve.run,
    "serve-mixed": workload_serve.run,
    "batch-cold": workload_batch.run,
    "warehouse-exec": workload_warehouse.run,
}


def parse_args(argv=None) -> argparse.Namespace:
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(RUNNERS),
        help="run one workload (default: all four, in order)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the timed window; fixes the operation counts "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (a fifth of the operations, per-layer "
        "metrics, span files); 0: end-to-end metrics, tracing off",
    )
    parser.add_argument(
        "--traced", action="store_true", help="same as --trace 1"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke size: 1/20 of every operation count, small warehouse",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for results.json, span files and the daemon's "
        "schema file (default: a fresh directory under .bench_out/)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="harness self-test: hand the oracle deliberately wrong "
        "rewritings; the run must fail",
    )
    args = parser.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    return args


def report(
    result: common.WorkloadResult, spec: dict, units: dict, traced: bool
) -> dict:
    """Print one workload's metrics; returns the driver's result object.

    The object carries exactly the ``end_to_end`` metrics of
    BENCHMARK.json for an untraced run and exactly the ``per_layer``
    ones for a traced run. A per-layer metric of a layer this workload
    never enters is reported as 0.
    """
    listed = spec["per_layer" if traced else "end_to_end"]
    print(f"== {result.workload} ({'traced' if traced else 'untraced'}) ==")
    for name in sorted(result.metrics, key=lambda n: ("." in n, n)):
        metric = result.metrics[name]
        spread = (
            f"  [{metric.low:.6g} .. {metric.high:.6g}]"
            if metric.segments else ""
        )
        print(f"  {name:<46} {metric.value:>14.6g} {units[name]:<6}{spread}")
    for key, value in result.counts.items():
        print(f"  # {key} = {value}")
    for problem in result.problems[:10]:
        print(f"  !! {problem}")
    failed = result.failed + len(result.problems)
    metrics = {}
    for entry in listed:
        metric = result.metrics.get(entry["name"], Measured(0.0))
        metrics[entry["name"]] = {
            "value": metric.value, "unit": entry["unit"],
        }
    return {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not supervise.is_worker():
        # Run again as a child of this process, which then waits for
        # every process the run leaves (see supervise.py).
        own = sys.argv[1:] if argv is None else list(argv)
        return supervise.run([str(Path(__file__).resolve()), *own])
    spec = common.load_spec()
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    out_dir = args.out or (
        common.REPO_ROOT / ".bench_out"
        / f"run-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"results directory: {out_dir}")
    host = common.host_record(args.seed)
    if host["noisy_host"]:
        print(
            f"warning: 1-minute load {host['loadavg_1m']:.2f} exceeds "
            f"nproc - 1 = {host['nproc'] - 1}; timings will be noisy"
        )
    names = [args.workload] if args.workload else list(RUNNERS)
    document = {
        "host": host,
        "quick": args.quick,
        "traced": args.traced,
        "seconds": args.seconds,
        "workloads": {},
    }
    lines = []
    all_correct = True
    for name in names:
        cfg = common.Config(
            workload=name,
            seed=args.seed,
            seconds=args.seconds,
            traced=args.traced,
            quick=args.quick,
            out_dir=out_dir,
            corrupt=args.corrupt,
        )
        result = RUNNERS[name](cfg)
        line = report(result, spec, units, args.traced)
        document["workloads"][name] = {
            **line,
            "metrics": {
                metric: value.as_dict(units[metric])
                for metric, value in result.metrics.items()
            },
            "counts": result.counts,
            "problems": result.problems,
            "truncated": result.truncated,
        }
        lines.append(line)
        all_correct = all_correct and result.correct
    with open(out_dir / "results.json", "w") as handle:
        json.dump(document, handle, indent=1)
    for line in lines:
        print(json.dumps(line))
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
