#!/usr/bin/env bash
# CI smoke for the command line: every `repro` subcommand once, as a real
# `python -m repro` process, against a tiny schema.
#
#     bash benchmarks/cli_smoke.sh        # from the repository root
#
# Fails on a non-zero exit, on a traceback on stderr, or on any JSON
# output (a `--json` document or a JSON-lines stream) that is not a
# `repro-api/1` envelope. `serve-sql` reads its lines from a heredoc;
# `serve` is started on a free port and shut down through its protocol.
set -euo pipefail

export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
work="$(mktemp -d)"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
    rm -rf "$work"
}
trap cleanup EXIT

cat > "$work/schema.sql" <<'SQL'
CREATE TABLE Calls (Call_Id INT PRIMARY KEY, Plan_Id INT, Year INT, Charge INT);
CREATE VIEW Yearly (Plan_Id, Year, Total, N) AS
SELECT Plan_Id, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Year;
SQL
query="SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id"
cat > "$work/requests.jsonl" <<JSONL
{"id": "q1", "query": "$query"}
"SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
JSONL
echo "$query;" > "$work/workload.sql"
mkdir "$work/data"
printf 'Call_Id,Plan_Id,Year,Charge\n1,1,1995,10\n2,1,1995,5\n3,2,1996,7\n' \
    > "$work/data/Calls.csv"

# check_output NAME: no traceback in NAME.err; every JSON document or
# line in NAME.out and NAME.err is a repro-api/1 envelope.
check_output() {
    if grep -q "Traceback" "$work/$1.err"; then
        echo "::error::repro $1 printed a traceback"
        cat "$work/$1.err"
        exit 1
    fi
    python - "$work/$1.out" "$work/$1.err" <<'PY'
import json
import sys

def check(doc, where):
    ok = (
        isinstance(doc, dict)
        and doc.get("schema") == "repro-api/1"
        and isinstance(doc.get("kind"), str)
        and isinstance(doc.get("ok"), bool)
        and ("result" in doc) != ("error" in doc)
    )
    if not ok:
        sys.exit(f"{where}: not a repro-api/1 envelope: {doc!r}"[:400])

for path in sys.argv[1:]:
    text = open(path).read()
    try:
        docs = [json.loads(text)] if text.lstrip().startswith("{") else []
    except json.JSONDecodeError:
        docs = [json.loads(l) for l in text.splitlines() if l.startswith("{")]
    for doc in docs:
        check(doc, path)
PY
}

# run NAME ARGS...: `python -m repro ARGS...` must exit 0.
run() {
    local name="$1"
    shift
    if ! python -m repro "$@" > "$work/$name.out" 2> "$work/$name.err" \
            < "${stdin:-/dev/null}"; then
        echo "::error::repro $* exited non-zero"
        cat "$work/$name.err"
        exit 1
    fi
    check_output "$name"
    echo "ok: repro $name"
}

s=(--schema "$work/schema.sql")
run rewrite rewrite "${s[@]}" --query "$query" --json
run rewrite-traced rewrite "${s[@]}" --query "$query" --json --trace \
    --metrics-out "$work/traced.prom"
# The trace counters and the planner metrics come from one fold per
# search, so in a real process they must agree.
python - "$work/rewrite-traced.out" "$work/traced.prom" <<'PY'
import json
import re
import sys

counters = json.load(open(sys.argv[1]))["result"]["trace"]["counters"]
samples = {}
for line in open(sys.argv[2]):
    match = re.match(r"^(repro_planner_\w+?)(\{[^}]*\})? (\S+)$", line)
    if match:
        name = match.group(1)
        samples[name] = samples.get(name, 0) + int(float(match.group(3)))
pairs = {
    "searches": "repro_planner_searches_total",
    "nodes_expanded": "repro_planner_nodes_expanded_total",
    "candidates_generated": "repro_planner_candidates_total",
}
for counter, family in pairs.items():
    if counters.get(counter, 0) != samples.get(family) or not samples[family]:
        sys.exit(
            f"trace counter {counter}={counters.get(counter, 0)} but "
            f"{family} (summed over labels)={samples.get(family)}"
        )
PY
echo "ok: trace counters equal the planner metrics"
run explain explain "${s[@]}" --query "$query" --json --trace
run batch batch "${s[@]}" "$work/requests.jsonl" --metrics-out "$work/m.prom"
# The batch report carries throughput and degradation counts only;
# planner counters live in the repro_planner_* metric families.
python - "$work/batch.err" <<'PY'
import json
import sys

want = {
    "mode", "workers", "requests", "groups", "chunks", "elapsed",
    "requests_per_second", "deadline", "exhausted", "degraded", "errors",
}
reports = [
    doc["result"]["batch"]
    for doc in (
        json.loads(line) for line in open(sys.argv[1]) if line[:1] == "{"
    )
    if doc.get("kind") == "batch-report"
]
if len(reports) != 1 or set(reports[0]) != want:
    sys.exit(f"batch-report keys: {[sorted(r) for r in reports]}")
PY
echo "ok: batch-report fields"
# Slices across real processes: 96 requests in serial mode and in process
# mode with two workers (one runner process plus the calling thread) must
# answer with the same rewritings, line by line.
python - "$work/many.jsonl" <<'PY'
import json
import sys

templates = [
    "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = {y} GROUP BY Plan_Id",
    "SELECT Year, COUNT(Charge) FROM Calls WHERE Plan_Id = {p} GROUP BY Year",
    "SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = {y} GROUP BY Plan_Id",
]
with open(sys.argv[1], "w") as out:
    for i in range(96):
        sql = templates[i % 3].format(y=1990 + i // 3, p=i // 3)
        out.write(json.dumps({"id": f"r{i}", "query": sql}) + "\n")
PY
run batch-serial batch "${s[@]}" "$work/many.jsonl" --mode serial
run batch-process batch "${s[@]}" "$work/many.jsonl" --mode process \
    --workers 2
python - "$work/batch-serial.out" "$work/batch-process.out" <<'PY'
import json
import sys

serial, process = (
    [json.loads(line)["result"]["rewritings"] for line in open(path)]
    for path in sys.argv[1:]
)
if len(serial) != 96 or serial != process:
    sys.exit("repro batch: process mode answered differently from serial")
if not any(serial):
    sys.exit("repro batch: no request found a rewriting")
PY
echo "ok: batch process mode equals serial"
# Building the parser must not load the fuzz package: every command,
# `repro serve` included, would pay for the import.
if ! python -c "import sys, repro.cli; repro.cli.build_parser(); \
        sys.exit('repro.fuzz' in sys.modules)"; then
    echo "::error::building the repro parser imports repro.fuzz"
    exit 1
fi
echo "ok: the parser does not import repro.fuzz"
run check check "${s[@]}" --left "SELECT Plan_Id FROM Calls" \
    --right "SELECT Plan_Id FROM Calls" --trials 5
run advise advise "${s[@]}" --workload "$work/workload.sql" --budget 100
run query query "${s[@]}" --data "$work/data" --query "$query" --use-views
run emit emit "${s[@]}" --query "$query" --dialect postgres --views --json
run rewrite-sql rewrite-sql "${s[@]}" --sql "$query" --json
cat > "$work/serve-sql.in" <<JSONL
{"id": 1, "sql": "$query"}
# a comment: numbered, not answered
{"id": 2, "sql": "SELECT x FROM nowhere"}
{"sql": 5}
{not json
JSONL
stdin="$work/serve-sql.in" run serve-sql serve-sql "${s[@]}"
# Every per-line error is an envelope, never fatal: exactly one line out
# per request line in.
python - "$work/serve-sql.in" "$work/serve-sql.out" <<'PY'
import sys

lines = open(sys.argv[1]).read().splitlines()
wanted = sum(1 for l in lines if l.strip() and not l.startswith("#"))
got = len(open(sys.argv[2]).read().splitlines())
if got != wanted:
    sys.exit(f"repro serve-sql answered {got} lines for {wanted} requests")
PY
run metrics metrics "${s[@]}" --query "$query"
run fuzz fuzz --max-scenarios 5 --seed 1 --json --out-dir "$work/fuzz"

python -m repro serve "${s[@]}" --port 0 \
    > "$work/serve.out" 2> "$work/serve.err" &
serve_pid=$!
python - "$work/serve.out" <<'PY'
import json
import sys
import time

from repro import api

deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    with open(sys.argv[1]) as handle:
        line = handle.readline()
    if line.endswith("\n"):
        break
    time.sleep(0.1)
else:
    sys.exit("repro serve printed no ready line")
kind, host, port = json.loads(line)["result"]["addresses"][0]
with api.connect((host, port)) as client:
    client.ping()
    client.shutdown()
PY
if ! wait "$serve_pid"; then
    serve_pid=""
    echo "::error::repro serve exited non-zero"
    cat "$work/serve.err"
    exit 1
fi
serve_pid=""
check_output serve
echo "ok: repro serve"
