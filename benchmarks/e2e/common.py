"""Run configuration, the result record, and the host record."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import COARSE, Measured

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

#: A traced run drives one fifth of the operation count.
TRACED_FRACTION = 0.2
#: --quick: one twentieth of every operation count, a tenth of the rows.
QUICK_FRACTION = 0.05
#: The warm-up is 5 % of the operation count, untimed, part of setup_s.
WARMUP_FRACTION = 0.05
#: Complete set-ups per untraced run (setup_s is their median): five
#: where one takes about a second, three where it takes several.
SETUP_REPEATS = {"serve-hot": 5, "serve-mixed": 5, "batch-cold": 3,
                 "warehouse-exec": 3}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Config:
    """What one workload run is asked to do."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    quick: bool
    out_dir: Path
    #: Harness self-test: corrupt the sampled rewritings before the
    #: oracle sees them; the run must then fail.
    corrupt: bool = False

    @property
    def scale(self) -> float:
        """Multiplier on the full-size operation counts."""
        scale = QUICK_FRACTION if self.quick else 1.0
        return scale * (TRACED_FRACTION if self.traced else 1.0)

    def plan(
        self, per_second: float, per_segment: int, max_segments: int
    ) -> tuple[int, int]:
        """``(operation count, segment count)`` of one timed window.

        The count is the workload's nominal rate times the requested
        seconds, cut into equal segments of about ``per_segment``
        operations: at most ``max_segments`` of them, always a multiple
        of the COARSE groups. Counts, not durations, delimit every
        window, so the same ``--seconds`` always runs exactly the same
        operations.
        """
        total = per_second * self.seconds * self.scale
        groups = int(total // (per_segment * COARSE))
        segments = COARSE * min(max_segments // COARSE, max(1, groups))
        return max(2, round(total / segments)) * segments, segments

    def warmup(self, n_ops: int) -> int:
        return max(1, round(n_ops * WARMUP_FRACTION))

    def hard_deadline(self) -> float:
        """A ``perf_counter`` time past which timed loops stop early
        (stamped ``truncated``), so a slow host cannot overrun the
        driver's per-run limit."""
        return time.perf_counter() + max(30.0, 5.0 * self.seconds)


@dataclass
class WorkloadResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    #: Oracle / parity / consistency failures, described.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Measured] = field(default_factory=dict)
    #: Exact counts and sizes worth keeping beside the metrics.
    counts: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def harness_peak_rss_mb() -> float:
    """ru_maxrss of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD's hash read from .git (no subprocess); "" outside a repo."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO_ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return ""


def host_record(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg_1m": load,
        "noisy_host": load > nproc - 1,
        "seed": seed,
        "git_commit": git_commit(),
    }
