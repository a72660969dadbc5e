"""Self-tests of the benchmark harness.

Run explicitly (tier-1's ``testpaths`` does not collect this file)::

    python -m pytest benchmarks/e2e

They drive ``run.py --quick`` as a subprocess, so the whole file takes
about two minutes.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_harness(out: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def result_lines(stdout: str) -> list[dict]:
    return [
        json.loads(line)
        for line in stdout.splitlines() if line.startswith("{")
    ]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    done = run_harness(out)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads((out / "results.json").read_text())


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    runs = []
    for label in ("a", "b"):
        out = tmp_path_factory.mktemp(f"traced-{label}")
        done = run_harness(out, "--traced")
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append((done.stdout, out))
    return runs


# ----------------------------------------------------------------------
# Inputs come from the seed and nothing else.


def _streams(seed: int) -> str:
    warm, timed = inputs.serve_stream("serve-mixed", seed, 200, 5, 10)
    hot_warm, hot = inputs.serve_stream("serve-hot", seed, 50, 5, 5)
    batch = inputs.batch_requests(inputs.batch_scenarios(seed, 40))
    return json.dumps(
        {
            "mixed": [op.wire for op in warm + timed],
            "classes": [op.cls for op in warm + timed],
            "hot": [op.wire for op in hot_warm + hot],
            "batch": [r.query for r in batch],
            "warehouse": inputs.warehouse_statements(seed, 50, 10_000),
        }
    )


def test_same_seed_gives_byte_identical_streams():
    assert _streams(11) == _streams(11)


def test_another_seed_changes_every_stream():
    a, b = json.loads(_streams(11)), json.loads(_streams(12))
    for key in ("mixed", "hot", "batch", "warehouse"):
        assert a[key] != b[key], key


def test_serve_segments_have_a_fixed_class_mix():
    _warm, ops = inputs.serve_stream("serve-mixed", 3, 500, 5, 25)
    per_segment = [ops[i * 100:(i + 1) * 100] for i in range(5)]
    for cls, expected in (("adhoc", 20), ("pinned", 10), ("update", 2)):
        assert [
            sum(1 for op in seg if op.cls == cls) for seg in per_segment
        ] == [expected] * 5
    texts = [op.wire["sql"] for op in ops if op.cls in ("adhoc", "pinned")]
    assert len(texts) == len(set(texts)), "an ad hoc text was sent twice"


# ----------------------------------------------------------------------
# BENCHMARK.json and what the command prints agree.


def test_spec_names_are_well_formed_and_unique():
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(
        e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
        for e in SPEC["end_to_end"]
    )


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    stdout, _doc = untraced
    lines = result_lines(stdout)
    assert len(lines) == len(WORKLOADS)
    wanted = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    for line in lines:
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(wanted)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == wanted[name]
            assert metric["value"] > 0, name
    for name, unit in wanted.items():
        assert re.search(
            rf"^  {re.escape(name)}\s+\S+ {re.escape(unit)}", stdout, re.M
        ), name


def test_traced_run_prints_every_per_layer_metric(traced_twice):
    stdout, out = traced_twice[0]
    wanted = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    seen: set[str] = set()
    for line in result_lines(stdout):
        assert line["correct"], line
        assert set(line["metrics"]) == set(wanted)
        seen |= {n for n, m in line["metrics"].items() if m["value"]}
    never = set(wanted) - seen - {
        # legitimately zero at --quick size
        "serving.admission.refused", "service.pool.chunk_demotions",
        "serving.worker.path_warm_shared", "serving.memo.lookup_hit_ratio",
        "serving.worker.run_warm_shared_us_p50",
        "serving.worker.run_warm_shared_us_p99",
        "core.planner.merge_us_p50",
    }
    assert not never, f"no workload measured: {sorted(never)}"
    for workload in WORKLOADS:
        spans = out / f"spans-{workload}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert {"request", "name", "parent", "start", "end"} <= set(first)


def test_count_metrics_repeat_exactly(traced_twice):
    exact = [
        "serving.worker.path_warm_local", "serving.worker.path_warm_shared",
        "serving.worker.path_cold", "core.planner.searches",
        "core.planner.nodes_expanded", "serving.memo.epoch_bumps",
    ]
    (a_out, a_dir), (b_out, b_dir) = traced_twice
    for a, b in zip(result_lines(a_out), result_lines(b_out)):
        for name in exact:
            assert a["metrics"][name] == b["metrics"][name], name
    a_doc = json.loads((a_dir / "results.json").read_text())
    b_doc = json.loads((b_dir / "results.json").read_text())
    for workload in WORKLOADS:
        assert (
            a_doc["workloads"][workload]["metrics"]["answered_share"]["value"]
            == b_doc["workloads"][workload]["metrics"]["answered_share"]["value"]
        )


def test_result_file_carries_the_host_record(untraced):
    _stdout, doc = untraced
    assert doc["quick"] is True
    for key in ("nproc", "python", "platform", "loadavg_1m", "noisy_host",
                "seed", "git_commit"):
        assert key in doc["host"]
    for run in doc["workloads"].values():
        assert run["counts"]


# ----------------------------------------------------------------------
# compare.py


def _worsened(doc: dict, factor: float) -> dict:
    worse = copy.deepcopy(doc)
    metric = worse["workloads"]["serve-hot"]["metrics"]["latency_p50_ms"]
    for key in ("value", "min", "max"):
        metric[key] *= factor
    metric["segments"] = [v * factor for v in metric["segments"]]
    return worse


def test_compare_flags_a_synthetic_regression(untraced, tmp_path):
    """Past the bound is `regressed` and exit 1; inside it is not."""
    _stdout, doc = untraced
    bound = next(
        e["bound"] for e in SPEC["end_to_end"] if e["name"] == "latency_p50_ms"
    )
    paths = {}
    for label, factor in (
        ("same", 1.0), ("inside", 1 + bound / 2), ("past", 1 + bound + 0.05)
    ):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(_worsened(doc, factor)))
    assert compare.main([str(paths["same"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["same"]), str(paths["inside"])]) == 0
    assert compare.main([str(paths["same"]), str(paths["past"])]) == 1
    rows = compare.compare(doc, _worsened(doc, 1 + bound + 0.05), SPEC)
    flagged = [(r[0], r[1]) for r in rows if r[-1] == "regressed"]
    assert flagged == [("serve-hot", "latency_p50_ms")]


def test_compare_refuses_quick_against_full(untraced, tmp_path):
    _stdout, doc = untraced
    full = dict(doc, quick=False)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(full))
    assert compare.main([str(a), str(b)]) == 2


# ----------------------------------------------------------------------
# The oracle gate bites.


@pytest.mark.parametrize(
    "workload", ["serve-hot", "batch-cold", "warehouse-exec"]
)
def test_a_wrong_rewriting_fails_the_command(workload, tmp_path):
    done = run_harness(tmp_path, "--workload", workload, "--corrupt")
    assert done.returncode != 0, done.stdout
    line = result_lines(done.stdout)[-1]
    assert line["correct"] is False and line["failed"] > 0


# ----------------------------------------------------------------------
# No process outlives the command.


def _in_session(sid: int) -> list[str]:
    """``/proc/<pid>/stat`` of every process (zombies too) in a session."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(stat.strip())
    return found


@pytest.mark.parametrize("flags", [(), ("--traced",), ("--corrupt",)])
def test_a_run_leaves_no_process_behind(flags, tmp_path):
    # Its own session, so that what the run started can be told from
    # everything else on the host once the command has returned.
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out",
         str(tmp_path), "--workload", "serve-hot", *flags],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    done.wait(timeout=600)
    assert _in_session(done.pid) == []
