"""The fuzzing loop: generate → cross-check → shrink → persist.

Driven by ``repro fuzz`` (see :mod:`repro.cli`). Every scenario goes
through the SQLite cross-checker; every Nth scenario additionally runs
the rewrite search under a tight :class:`SearchBudget` (partial result
sets must still be sound). A mismatch is shrunk by delta debugging and
written to ``fuzz-failures/`` as a replayable ``repro-fuzz/1`` JSON
document.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import OracleUnsupported
from ..obs.budget import SearchBudget
from ..obs.metrics import counter
from ..oracle import CrossChecker
from ..oracle.backends import available_backends
from ..workloads.random_queries import Scenario
from .generate import PROFILES, fuzz_scenario
from .serialize import scenario_to_json
from .shrink import shrink_scenario

SCENARIOS = counter(
    "repro_fuzz_scenarios_total",
    "Fuzz scenarios generated, by profile and outcome.",
    ("profile", "outcome"),
)
CHECKS = counter(
    "repro_fuzz_checks_total",
    "Oracle comparisons performed by the fuzz loop, by profile.",
    ("profile",),
)
MISMATCHES = counter(
    "repro_fuzz_mismatches_total",
    "Oracle disagreements found by the fuzz loop, by profile.",
    ("profile",),
)

#: Every Nth scenario re-runs the search under each tight budget.
BUDGET_EVERY = 5

TIGHT_BUDGETS = (
    SearchBudget(max_mappings=2),
    SearchBudget(max_candidates=1),
)


@dataclass
class FuzzStats:
    scenarios: int = 0
    checks: int = 0
    rewritings: int = 0
    failures: int = 0
    skipped: int = 0
    shrink_iterations: int = 0
    elapsed: float = 0.0
    engine: str = "auto"
    backends: tuple = ("sqlite",)
    by_profile: dict = field(default_factory=dict)
    #: Structured per-profile breakdown:
    #: ``{profile: {"scenarios", "checks", "mismatches", "skipped"}}``.
    profiles: dict = field(default_factory=dict)
    failure_files: list = field(default_factory=list)

    @property
    def scenarios_per_sec(self) -> float:
        return self.scenarios / self.elapsed if self.elapsed > 0 else 0.0

    def profile_bucket(self, profile: str) -> dict:
        """The mutable per-profile counter record, created on first use."""
        return self.profiles.setdefault(
            profile,
            {"scenarios": 0, "checks": 0, "mismatches": 0, "skipped": 0},
        )

    def as_dict(self) -> dict:
        return {
            "scenarios": self.scenarios,
            "checks": self.checks,
            "rewritings": self.rewritings,
            "failures": self.failures,
            "skipped": self.skipped,
            "shrink_iterations": self.shrink_iterations,
            "elapsed_seconds": round(self.elapsed, 3),
            "scenarios_per_sec": round(self.scenarios_per_sec, 2),
            "engine": self.engine,
            "backends": list(self.backends),
            "by_profile": dict(self.by_profile),
            "profiles": {
                name: dict(bucket)
                for name, bucket in sorted(self.profiles.items())
            },
            "failure_files": [str(p) for p in self.failure_files],
        }


class FuzzRunner:
    """Run the fuzz loop for a time budget or scenario count."""

    def __init__(
        self,
        out_dir: Path = Path("fuzz-failures"),
        base_seed: int = 0,
        max_rewritings_per_scenario: int = 8,
        shrink_checks: int = 300,
        engine: str = "auto",
        backends: tuple = ("sqlite",),
        strategy: str = "c1c4",
    ):
        self.out_dir = Path(out_dir)
        self.base_seed = base_seed
        #: Execution-engine mode for every scenario evaluation:
        #: ``row``/``columnar``/``auto`` run that engine against the live
        #: backends; ``both`` additionally cross-checks row vs columnar
        #: per evaluation (N-way agreement).
        self.engine = engine
        #: Live backend names every scenario executes on (the N-way
        #: oracle: row = columnar = SQLite = DuckDB = ...).
        self.backends = tuple(backends)
        #: Planner strategy the oracle searches with; ``"cohen_nutt"``
        #: runs the cross-planner differential mode (oracle soundness of the
        #: union plus C1–C4 ⊆ Cohen–Nutt dominance per scenario) and
        #: records per-strategy found/missed tallies per profile.
        self.strategy = strategy
        self.checker = CrossChecker(
            max_rewritings=max_rewritings_per_scenario,
            engine=engine,
            backends=self.backends,
            strategy=strategy,
        )
        self.shrink_checks = shrink_checks

    # ------------------------------------------------------------------

    def run(
        self,
        budget_seconds: Optional[float] = 60.0,
        max_scenarios: Optional[int] = None,
        max_failures: int = 5,
        progress=None,
    ) -> FuzzStats:
        """Fuzz until the time budget, scenario count or failure cap."""
        stats = FuzzStats(engine=self.engine, backends=self.backends)
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if budget_seconds is not None and elapsed >= budget_seconds:
                break
            if max_scenarios is not None and index >= max_scenarios:
                break
            if stats.failures >= max_failures:
                break
            seed = self.base_seed + index
            index += 1
            self._run_one(seed, stats)
            if progress is not None and index % 50 == 0:
                progress(stats, time.perf_counter() - start)
        stats.elapsed = time.perf_counter() - start
        return stats

    # ------------------------------------------------------------------

    def _run_one(self, seed: int, stats: FuzzStats) -> None:
        profile = PROFILES[seed % len(PROFILES)]
        stats.by_profile[profile] = stats.by_profile.get(profile, 0) + 1
        bucket = stats.profile_bucket(profile)
        scenario = fuzz_scenario(seed)
        budget = None
        if seed % BUDGET_EVERY == 0:
            budget = TIGHT_BUDGETS[
                (seed // BUDGET_EVERY) % len(TIGHT_BUDGETS)
            ]
        try:
            report = self.checker.check(scenario, budget=budget)
        except OracleUnsupported as reason:
            stats.skipped += 1
            stats.by_profile[f"{profile}:skipped"] = (
                stats.by_profile.get(f"{profile}:skipped", 0) + 1
            )
            bucket["skipped"] += 1
            _record_outcome(profile, skipped=True)
            del reason
            return
        stats.scenarios += 1
        stats.checks += report.checks
        stats.rewritings += report.rewritings
        bucket["scenarios"] += 1
        bucket["checks"] += report.checks
        bucket["mismatches"] += len(report.mismatches)
        if self.strategy != "c1c4":
            # Per-strategy uplift tallies: did each planner strategy
            # find at least one rewriting for this scenario?
            for name, count in report.strategy_counts.items():
                outcome = "found" if count else "missed"
                key = f"{name}_{outcome}"
                bucket[key] = bucket.get(key, 0) + 1
        _record_outcome(
            profile, checks=report.checks, mismatches=len(report.mismatches)
        )
        if report.ok:
            return
        stats.failures += 1
        self._handle_failure(seed, profile, scenario, report, budget, stats)

    def _handle_failure(
        self, seed, profile, scenario, report, budget, stats
    ) -> None:
        def still_fails(candidate: Scenario) -> bool:
            try:
                return not self.checker.check(candidate, budget=budget).ok
            except OracleUnsupported:
                return False

        result = shrink_scenario(
            scenario, still_fails, max_checks=self.shrink_checks
        )
        stats.shrink_iterations += result.iterations
        final_report = self.checker.check(result.scenario, budget=budget)
        path = self._write_repro(
            seed, profile, result, final_report, budget, stats
        )
        stats.failure_files.append(path)

    def _write_repro(
        self, seed, profile, result, report, budget, stats
    ) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        doc = scenario_to_json(
            result.scenario,
            profile=profile,
            engine=self.engine,
            strategy=self.strategy,
            backends=list(self.backends),
            budget=budget.as_dict() if budget is not None else None,
            mismatches=[m.describe() for m in report.mismatches],
            shrink={
                "iterations": result.iterations,
                "rows": [result.rows_before, result.rows_after],
                "views": [result.views_before, result.views_after],
            },
            # The run's per-profile tallies at failure time, so a repro
            # records how hard its profile had been exercised.
            profile_stats=dict(stats.profile_bucket(profile)),
        )
        path = self.out_dir / f"seed-{seed}-{profile}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path


def _record_outcome(
    profile: str,
    checks: int = 0,
    mismatches: int = 0,
    skipped: bool = False,
) -> None:
    """Fold one fuzz scenario's outcome into the active registry."""
    SCENARIOS.labels(profile, "skipped" if skipped else "checked").inc()
    if checks:
        CHECKS.labels(profile).inc(checks)
    if mismatches:
        MISMATCHES.labels(profile).inc(mismatches)


def replay(
    path: Path,
    budget: Optional[SearchBudget] = None,
    engine: Optional[str] = None,
    backends: Optional[tuple] = None,
    strategy: Optional[str] = None,
):
    """Re-run a persisted repro; returns the fresh :class:`CheckReport`.

    ``engine``, ``backends`` and ``strategy`` default to the modes
    recorded in the repro document, so a failure found by an N-way sweep
    replays under the same cross-checks (pre-strategy repro files
    default to ``c1c4``, the search that produced them). Recorded
    backends whose driver is absent on this machine are dropped (with
    SQLite always retained), so a repro from the CI DuckDB job still
    replays locally.
    """
    from .serialize import scenario_from_json

    doc = json.loads(Path(path).read_text())
    scenario = scenario_from_json(doc)
    saved = doc.get("budget")
    if budget is None and saved:
        budget = SearchBudget(
            deadline=saved.get("deadline"),
            max_mappings=saved.get("max_mappings"),
            max_candidates=saved.get("max_candidates"),
        )
    if engine is None:
        engine = doc.get("engine", "auto")
    if backends is None:
        backends = tuple(doc.get("backends", ("sqlite",)))
    if strategy is None:
        strategy = doc.get("strategy", "c1c4")
    installed = set(available_backends())
    backends = tuple(b for b in backends if b in installed) or ("sqlite",)
    return CrossChecker(
        engine=engine, backends=backends, strategy=strategy
    ).check(scenario, budget=budget)
