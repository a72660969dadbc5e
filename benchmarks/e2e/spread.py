#!/usr/bin/env python3
"""Run every workload on N seeds and report each end-to-end metric's
spread the way the benchmark driver does.

    python3 benchmarks/e2e/spread.py [--seeds 10] [--first-seed 100]
        [--workload NAME] [--seconds S]

The spread of a metric is the distance between the first and third
quartile of its N values (``statistics.quantiles(values, n=4)``) as a
share of their median. A benchmark is steady when every spread except
``setup_s`` is below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT")
                steady = False
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(
                f"{workload:<15} {name:<16} median {median:>10.4f}  "
                f"spread {spread:>7.4f}  bound {bounds[name]:.2f}  "
                f"{'ok' if ok else 'TOO WIDE'}",
                flush=True,
            )
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
