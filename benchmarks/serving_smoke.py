#!/usr/bin/env python
"""CI smoke for the serving daemon — a real ``repro serve`` process.

Unlike ``tests/serving`` (in-process daemon), this script exercises the
deployment path end to end and times nothing — the serving numbers are
the ``serve-hot`` / ``serve-mixed`` rows of ``benchmarks/e2e``:

1. start ``python -m repro serve`` as a subprocess, wait for its
   ``serve-ready`` line and read the bound port;
2. drive a mixed hot/cold workload through ``repro.api.connect`` —
   repeated hot fingerprints, one-off view-subset fingerprints (one of
   them reading a view it did not pin), and a base-table update
   mid-stream — asserting every envelope, and the response memo's
   hit/miss counts the fixed schedule implies;
3. write the first round's rewrite lines to a JSONL file, run
   ``python -m repro batch`` on it and require each line's rewritings
   to equal what the daemon returned — the "a batch file replays
   against a daemon verbatim" promise, on real processes; then send a
   comment and a malformed line on a fresh connection and in a batch
   file, and require the same error text (the same line number) from
   both;
4. restart with ``--queue-limit 0`` and assert overload is refused
   *in-band* (degraded response, ``queue_full`` tripped, connection
   survives);
5. leave ``serve-metrics.prom`` behind (written by ``--metrics-out``
   even on failure) for CI to upload as an artifact.

Exit code 0 means every assertion held.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

SCHEMA_SQL = """
CREATE TABLE Calls (Call_Id, Plan_Id, Year, Charge);
CREATE VIEW Yearly (Plan_Id, Year, Total) AS
SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year;
CREATE VIEW Totals (Plan_Id, Total) AS
SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id;
"""

HOT_QUERY = (
    "SELECT Plan_Id, SUM(Charge) FROM Calls "
    "WHERE Year = 1995 GROUP BY Plan_Id"
)

#: Reads one view while pinning the other: the daemon must parse it
#: against the whole catalog, as `repro batch` does.
OVER_YEARLY = "SELECT Plan_Id, SUM(Total) FROM Yearly GROUP BY Plan_Id"


def replay_through_batch(schema: str, tmp: str, replay: list) -> None:
    """`repro batch` over the recorded lines must answer as the daemon did."""
    lines = Path(tmp) / "replay.jsonl"
    lines.write_text("".join(json.dumps(wire) + "\n" for wire, _ in replay))
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "batch",
            "--schema", schema, "--mode", "serial", str(lines),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    docs = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(docs) == len(replay), (len(docs), len(replay))
    for doc, (wire, served) in zip(docs, replay):
        assert doc["ok"], doc
        assert doc["result"]["rewritings"] == served, (wire, doc, served)


#: A comment, then a line both servers refuse: as line 2, since both
#: number physical lines.
MALFORMED = '# a comment\n{"sql": 5, "id": "bad"}\n'


def malformed_through_both(schema: str, tmp: str, port: int) -> str:
    """The daemon's and `repro batch`'s error for :data:`MALFORMED`."""
    from repro import api

    with api.connect(("127.0.0.1", port)) as probe:
        probe._sock.sendall(MALFORMED.encode())
        served = probe._read_until("bad")
    assert served["ok"] is False, served
    message = served["error"]["message"]
    lines = Path(tmp) / "malformed.jsonl"
    lines.write_text(MALFORMED)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "batch", "--schema", schema,
         str(lines)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert done.returncode == 2, (done.returncode, done.stderr)
    assert done.stderr == f"error: {lines}: {message}\n", (
        done.stderr, message,
    )
    return message


def start_daemon(schema: str, metrics_out: str, *extra: str):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--schema", schema, "--port", "0",
            "--metrics-out", str(Path(metrics_out).resolve()), *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["schema"] == "repro-api/1", ready
    assert ready["kind"] == "serve-ready", ready
    port = next(
        addr[2] for addr in ready["result"]["addresses"]
        if addr[0] == "tcp"
    )
    return proc, int(port)


def stop_daemon(proc, client=None):
    if client is not None:
        assert client.shutdown()["ok"]
        client.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("daemon did not exit after shutdown")
    assert proc.returncode == 0, proc.stderr.read()


def main() -> int:
    from repro import api
    from repro.obs.metrics import MetricsSnapshot

    with tempfile.TemporaryDirectory() as tmp:
        schema = str(Path(tmp) / "schema.sql")
        Path(schema).write_text(SCHEMA_SQL)

        # -- mixed hot/cold workload against a real subprocess daemon
        proc, port = start_daemon(schema, "serve-metrics.prom")
        client = api.connect(("127.0.0.1", port))
        pong = client.ping()
        assert pong["ok"] and pong["result"]["pong"] is True, pong
        baseline = None
        replay = []  # round 0's (wire line, served rewritings) pairs

        def rewrite(sql, **fields):
            doc = client.rewrite(sql, **fields)
            assert doc["ok"], doc
            if round_no == 0:  # before any update moves the statistics
                replay.append(
                    ({"op": "rewrite", "sql": sql, **fields},
                     doc["result"]["rewritings"])
                )
            return doc

        for round_no in range(3):
            for i in range(6):  # hot: one fingerprint, re-asked
                doc = rewrite(
                    HOT_QUERY, tenant="dash", id=f"h{round_no}-{i}"
                )
                assert doc["result"]["rewritings"], doc
                sqls = [r["sql"] for r in doc["result"]["rewritings"]]
                if baseline is None:
                    baseline = sqls
                assert sqls == baseline, (round_no, i)
            for view in ("Yearly", "Totals"):  # cold-ish subsets
                rewrite(HOT_QUERY, views=[view])
            rewrite(OVER_YEARLY, views=["Totals"])  # ok: true is the point
            # an update lands mid-stream: epoch bumps, serving continues
            update = client.update(
                "Calls", insert=[[round_no, 1, 1995, 10]]
            )
            assert update["ok"], update
            assert update["result"]["epoch"] > update["result"][
                "epoch_before"
            ], update
        metrics = client.metrics()
        families = metrics["result"]["metrics"]["families"]
        assert "repro_serving_requests_total" in families, sorted(families)
        # An update moves counts, not rewritings: a stored response is
        # ranked again, never searched again. The hot text misses twice
        # in round 0 (the first execution only leaves a marker) and hits
        # every other time, across both updates: 4 + 6 + 6. Each of the
        # 3 pinned texts leaves its marker in round 0, is stored on its
        # second round and hits on its third.
        snapshot = MetricsSnapshot.from_dict(metrics["result"]["metrics"])
        memo = {
            outcome: snapshot.counter_value(
                "repro_serving_response_memo_total", outcome=outcome
            )
            for outcome in ("hit", "miss", "bypass")
        }
        assert memo == {"hit": 19, "miss": 8, "bypass": 0}, memo
        message = malformed_through_both(schema, tmp, port)
        stop_daemon(proc, client)
        print("mixed workload: ok (3 rounds, 27 rewrites, 3 updates)")
        replay_through_batch(schema, tmp, replay)
        print(f"batch replay: ok ({len(replay)} lines equal the daemon's)")
        print(f"malformed line: ok (daemon and batch both say {message!r})")

        # -- overload under a zero-size queue refuses in-band
        proc, port = start_daemon(
            schema, "serve-metrics-refusal.prom", "--queue-limit", "0"
        )
        client = api.connect(("127.0.0.1", port))
        refused = client.rewrite(HOT_QUERY)
        assert refused["ok"] is True, refused  # the exchange succeeded
        result = refused["result"]
        assert result["degraded"] is True, result
        assert result["budget"]["tripped"] == ["queue_full"], result
        assert result["rewritings"] == [], result
        # ... and the connection is still perfectly usable.
        assert client.ping()["ok"], "connection died after refusal"
        stop_daemon(proc, client)
        print("graceful refusal: ok (queue_full in-band, connection survived)")

    assert Path("serve-metrics.prom").read_text().strip(), (
        "daemon left an empty Prometheus snapshot"
    )
    print("serving smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
