"""The daemon end to end: sockets, refusals, updates, metrics frames."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.serving.daemon as serving_daemon
from repro import api
from repro.blocks.to_sql import block_to_sql
from repro.catalog.load import load_schema
from repro.core.planner import RewritePlanner
from repro.engine.database import Database
from repro.memo import clear_shared
from repro.obs.metrics import MetricsRegistry, set_global_metrics
from repro.serving import RewriteDaemon, ServingClient, TenantQuota
from repro.serving.memo import LocalMemoTier
from repro.serving.protocol import request_from_wire, serving_keys
from repro.serving.worker import COLD, WARM_LOCAL, WARM_SHARED
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest

from .conftest import loaded_scenario, running_daemon


def assert_envelope(doc, kind=None):
    assert doc["schema"] == "repro-api/1"
    assert isinstance(doc["ok"], bool)
    if kind is not None:
        assert doc["kind"] == kind
    assert ("result" in doc) or ("error" in doc)
    if doc["ok"]:
        assert "error" not in doc


def connect(daemon) -> ServingClient:
    return ServingClient.connect(("127.0.0.1", daemon.tcp_port))


def test_rewrite_ping_metrics_shutdown_over_tcp(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            pong = client.ping()
            assert_envelope(pong, "ping")
            assert pong["result"]["pong"] is True
            assert pong["result"]["strategies"] == [
                "c1c4",
                "cohen_nutt",
                "default",
            ]

            doc = client.rewrite(sql, id="r1")
            assert_envelope(doc, "rewrite")
            assert doc["id"] == "r1"
            cold = execute_request(
                RewriteRequest(query=sc.query, catalog=sc.catalog)
            )
            assert len(doc["result"]["rewritings"]) == len(cold.rewritings)

            metrics = client.metrics()
            assert_envelope(metrics, "metrics")

            bye = client.shutdown()
            assert_envelope(bye, "shutdown")
            assert bye["result"]["stopping"] is True


def test_unix_domain_socket(scenario, tmp_path):
    sc, db = scenario
    path = str(tmp_path / "repro.sock")
    with running_daemon(sc.catalog, database=db, unix_path=path) as daemon:
        assert ("unix", path) in daemon.addresses
        with ServingClient.connect("unix://" + path) as client:
            doc = client.rewrite(block_to_sql(sc.query))
            assert_envelope(doc, "rewrite")
            assert doc["ok"] is True


def test_pipelined_requests_matched_by_id(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            # Write three requests before reading any response; ids come
            # back matched even if completion order differs.
            payload = b"".join(
                (json.dumps({"op": "rewrite", "sql": sql, "id": f"p{i}"})
                 + "\n").encode()
                for i in range(3)
            )
            client._sock.sendall(payload)
            docs = [client._read_until(f"p{i}") for i in range(3)]
            assert [d["id"] for d in docs] == ["p0", "p1", "p2"]
            assert all(d["ok"] for d in docs)


def test_queue_overload_refuses_in_band(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    with running_daemon(
        sc.catalog, database=db, queue_limit=0
    ) as daemon:
        with connect(daemon) as client:
            doc = client.rewrite(sql, id="refused")
            # In-band refusal: a successful protocol exchange carrying a
            # degraded response tripped on queue_full — the connection
            # stays open and later ops still work.
            assert_envelope(doc, "rewrite")
            assert doc["ok"] is True
            result = doc["result"]
            assert result["degraded"] is True
            assert result["exhausted"] is True
            assert result["budget"]["tripped"] == ["queue_full"]
            assert result["rewritings"] == []
            assert client.ping()["ok"] is True


def test_tenant_quota_refusal_names_the_reason(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    with running_daemon(
        sc.catalog,
        database=db,
        tenant_quotas={"noisy": TenantQuota(max_inflight=0)},
    ) as daemon:
        with connect(daemon) as client:
            refused = client.rewrite(sql, tenant="noisy")
            assert refused["result"]["budget"]["tripped"] == [
                "tenant_quota"
            ]
            # Other tenants are unaffected.
            ok = client.rewrite(sql, tenant="quiet")
            assert ok["result"]["degraded"] is False


def test_protocol_errors_are_in_band(scenario):
    sc, db = scenario
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            doc = client.request({"op": "nonsense"})
            assert doc["ok"] is False
            assert "unknown op" in doc["error"]["message"]
            for name in ("no-such-strategy", "both"):
                doc = client.rewrite("SELECT 1", strategy=name)
                assert doc["ok"] is False
                assert f"unknown strategy '{name}'" in doc["error"]["message"]
            # The connection survives every error.
            assert client.ping()["ok"] is True


def test_non_numeric_limit_is_refused_in_band(scenario):
    """Limits are validated, not coerced: the daemon gives the message
    `repro batch` gives for the same line (tests/test_cli.py)."""
    sc, db = scenario
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            client.ping()
            doc = client.request({"sql": "SELECT 1", "max_steps": "3"})
            assert doc["ok"] is False
            assert doc["error"]["message"] == (
                "line 2: 'max_steps' must be an integer"
            )
            assert client.ping()["ok"] is True


@pytest.mark.parametrize("bad", [None, 5, "abc"])
def test_update_rows_must_be_a_list_of_rows(scenario, bad):
    sc, db = scenario
    table = next(iter(sc.catalog.tables))
    before = list(db.table(table).rows)
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            doc = client.request(
                {"op": "update", "table": table, "insert": bad}
            )
            assert_envelope(doc, "error")
            assert doc["error"]["message"] == (
                "line 1: 'insert' must be a list of rows"
            )
            assert client.ping()["ok"] is True
    assert db.table(table).rows == before


def test_update_invalidates_and_keeps_serving(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            client.rewrite(sql)  # publish a memo entry
            epoch_before = client.ping()["result"]["epoch"]
            entries_before = len(daemon.memo)
            assert entries_before >= 1

            update = client.update(table, insert=[[1] * width])
            assert_envelope(update, "update")
            result = update["result"]
            assert result["inserted"] == 1
            assert result["epoch"] > result["epoch_before"]
            affected = set(result["invalidated_views"])
            assert affected  # some view reads this table

            assert client.ping()["result"]["epoch"] > epoch_before
            # Post-update responses keep flowing without a restart and
            # match a cold planner over the post-update catalog.
            doc = client.rewrite(sql)
            assert doc["ok"] is True
            cold = execute_request(
                RewriteRequest(query=sc.query, catalog=sc.catalog)
            )
            assert [r["sql"] for r in doc["result"]["rewritings"]] == [
                r.sql() for r in cold.rewritings
            ]


def test_apply_update_counts_rows_given_as_iterators():
    daemon, sc = never_started()
    table = first_maintained_table(sc.catalog)
    width = len(sc.catalog.tables[table].columns)
    before = len(daemon.database.table(table).rows)
    try:
        summary = daemon.apply_update(
            table, inserts=((i + 70,) * width for i in range(4))
        )
    finally:
        daemon.close()
    assert summary["inserted"] == 4
    assert len(daemon.database.table(table).rows) == before + 4


def test_update_refreshes_view_statistics(scenario):
    sc, db = scenario
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)
    with running_daemon(sc.catalog, database=db) as daemon:
        with connect(daemon) as client:
            update = client.update(
                table, insert=[[i + 50] * width for i in range(4)]
            )
            for name in update["result"]["maintained_views"]:
                maintainer = daemon._maintainers[name]
                assert sc.catalog.row_count(name) == len(
                    maintainer.table()
                )


class CountingTier(LocalMemoTier):
    """A tier that counts the publishes the daemon asks of it."""

    def __init__(self):
        super().__init__()
        self.publishes = 0

    def publish(self, key, view_names, memo):
        self.publishes += 1
        return super().publish(key, view_names, memo)


def test_hot_requests_publish_exactly_once(scenario, monkeypatch):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    exports = []
    export_memos = RewritePlanner.export_memos

    def counting_export(self, max_entries=None):
        exports.append(self)
        return export_memos(self, max_entries)

    monkeypatch.setattr(RewritePlanner, "export_memos", counting_export)
    tier = CountingTier()
    registry = MetricsRegistry()
    hot = 12
    with running_daemon(
        sc.catalog, database=db, memo_tier=tier, metrics=registry
    ) as daemon:
        assert daemon.memo is tier  # an explicit (empty) tier wins
        with connect(daemon) as client:
            docs = [client.rewrite(sql) for _ in range(hot)]
    assert all(doc["ok"] for doc in docs)
    assert all(
        doc["result"]["rewritings"] == docs[0]["result"]["rewritings"]
        for doc in docs
    )
    # One publish and one export for the new planner; the other hot
    # requests learned nothing, so nothing was exported or pickled.
    assert tier.publishes == 1
    assert len(exports) == 1
    snapshot = registry.snapshot()
    family = "repro_serving_shared_memo_publishes_total"
    assert snapshot.counter_value(family, outcome="published") == 1
    assert snapshot.counter_value(family, outcome="skipped") == hot - 1


def shm_segments() -> set:
    """Names under /dev/shm (empty where the platform has none)."""
    try:
        return {path.name for path in Path("/dev/shm").iterdir()}
    except OSError:
        return set()


def test_a_started_daemon_keeps_its_memo_tier_in_process(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    before = shm_segments()
    with running_daemon(sc.catalog, database=db) as daemon:
        assert type(daemon.memo) is LocalMemoTier
        with connect(daemon) as client:
            assert client.rewrite(sql)["ok"]
        assert len(daemon.memo) == 1  # the planner's export, published
        assert shm_segments() - before == set()


def test_the_daemon_takes_no_workers_argument(scenario):
    sc, db = scenario
    with pytest.raises(TypeError):
        RewriteDaemon(sc.catalog, database=db, workers=1)


def test_metrics_interval_emits_frames(scenario, capsys):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    with running_daemon(
        sc.catalog,
        database=db,
        metrics=MetricsRegistry(),
        metrics_interval=0.01,
    ) as daemon:
        with connect(daemon) as client:
            client.rewrite(sql)
        # Wait for two frames printed after the response arrived.
        out = capsys.readouterr().out
        after = out.count("\n") + 2
        deadline = time.monotonic() + 10
        while out.count("\n") < after and time.monotonic() < deadline:
            time.sleep(0.02)
            out += capsys.readouterr().out
    out += capsys.readouterr().out
    frames = [json.loads(line) for line in out.splitlines()]
    assert len(frames) >= after
    assert [f["seq"] for f in frames] == list(range(1, len(frames) + 1))
    for frame in frames:
        assert frame["schema"] == "repro-metrics/1"
        assert frame["kind"] == "metrics-frame"
        assert frame["elapsed"] >= 0.0
    # Cumulative: the last frame carries the request the daemon served.
    families = frames[-1]["metrics"]["families"]
    assert "repro_serving_requests_total" in families


def test_serving_metrics_recorded(scenario):
    sc, db = scenario
    sql = block_to_sql(sc.query)
    daemon_metrics = MetricsRegistry()
    with running_daemon(
        sc.catalog,
        database=db,
        metrics=daemon_metrics,
        memo_tier=LocalMemoTier(),
    ) as daemon:
        with connect(daemon) as client:
            for i in range(3):
                client.rewrite(sql, tenant="dash", id=f"m{i}")
            client.shutdown()
    families = daemon_metrics.snapshot().families
    requests = {
        tuple(lv): value
        for lv, value in families["repro_serving_requests_total"]["samples"]
    }
    assert requests[("dash", "ok")] == 3
    latency = families["repro_serving_request_seconds"]["samples"]
    assert latency[0][1]["count"] == 3


LIBRARY_FAMILIES = (
    "repro_serving_planner_path_total",
    "repro_serving_response_memo_total",
    "repro_planner_searches_total",
)


def library_daemon_counts(served: bool, global_registry: bool) -> dict:
    """``LIBRARY_FAMILIES`` in the registry a daemon was given, after a
    miss, a store and a hit, with or without that registry also
    installed as the process global."""
    clear_shared()
    sc, db = loaded_scenario()
    registry = MetricsRegistry()
    lines = [
        json.dumps({"sql": block_to_sql(sc.query), "id": i}) for i in range(3)
    ]
    previous = set_global_metrics(registry if global_registry else None)
    try:
        if served:
            with running_daemon(
                sc.catalog, database=db, metrics=registry
            ) as daemon:
                with connect(daemon) as client:
                    for line in lines:
                        client._sock.sendall((line + "\n").encode())
                        client._reader.readline()
        else:
            daemon = RewriteDaemon(sc.catalog, database=db, metrics=registry)
            try:
                for line_no, line in enumerate(lines, 1):
                    daemon.handle(line, line_no)
            finally:
                daemon.close()
    finally:
        set_global_metrics(previous)
    families = registry.snapshot().families
    return {
        name: {
            tuple(labels): value
            for labels, value in families.get(name, {}).get("samples", ())
        }
        for name in LIBRARY_FAMILIES
    }


@pytest.mark.parametrize("served", [False, True], ids=["handle", "served"])
def test_a_library_daemon_records_every_family_into_its_registry(served):
    """``RewriteDaemon(catalog, metrics=reg)`` with no global registry:
    the planner, path and response-memo families its ops touch, on the
    loop and on the executor thread, land in ``reg``."""
    alone = library_daemon_counts(served, global_registry=False)
    assert alone == library_daemon_counts(served, global_registry=True)
    assert all(alone.values()), alone
    assert alone["repro_serving_response_memo_total"] == {
        ("miss",): 2, ("hit",): 1,
    }


# ----------------------------------------------------------------------
# Request lines of any realistic size

CALLS_SCHEMA = (
    "CREATE TABLE Calls (Call_Id, Plan_Id, Year, Charge);\n"
    "CREATE VIEW Yearly (Plan_Id, Year, Total) AS SELECT Plan_Id, "
    "Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year;\n"
)


def test_a_3000_row_update_is_answered():
    """Past asyncio's default 64 KiB line limit the connection used to
    close with no reply."""
    catalog, _ = load_schema(CALLS_SCHEMA)
    rows = [[i, i % 7, 1990 + i % 5, 10**12 + i] for i in range(3000)]
    assert len(json.dumps(rows)) > 64 * 1024
    with running_daemon(catalog, database=Database(catalog)) as daemon:
        with connect(daemon) as client:
            doc = client.update("Calls", insert=rows)
            assert_envelope(doc, "update")
            assert doc["result"]["inserted"] == 3000
            assert client.ping()["ok"] is True


def test_an_over_limit_line_is_refused_in_band(monkeypatch):
    monkeypatch.setattr(serving_daemon, "MAX_LINE_BYTES", 1024)
    catalog, _ = load_schema(CALLS_SCHEMA)
    with running_daemon(catalog, database=Database(catalog)) as daemon:
        with connect(daemon) as client:
            assert client.ping()["ok"] is True
            # One line that arrives in one read, one spread over many.
            for line_no, pad in ((2, 2_000), (4, 300_000)):
                doc = client.request({"op": "ping", "pad": "x" * pad})
                assert_envelope(doc, "error")
                assert doc["error"]["message"] == (
                    f"line {line_no}: request line longer than 1024 bytes"
                )
                assert client.ping()["ok"] is True


def test_the_daemon_and_repro_batch_name_the_same_line(tmp_path, capsys):
    """Both number physical lines: comments and blank lines count."""
    from repro.cli import main

    payload = '# c\n\n{"sql": 5, "id": 1}\n'
    schema, requests = tmp_path / "schema.sql", tmp_path / "requests.jsonl"
    schema.write_text(CALLS_SCHEMA)
    requests.write_text(payload)
    assert main(["batch", "--schema", str(schema), str(requests)]) == 2
    batch_error = capsys.readouterr().err
    catalog, _ = load_schema(CALLS_SCHEMA)
    with running_daemon(catalog, database=Database(catalog)) as daemon:
        with connect(daemon) as client:
            client._sock.sendall(payload.encode())
            doc = client._read_until("1")
    assert doc["error"]["message"] == (
        "line 3: 'sql' must be a non-empty SELECT string"
    )
    assert batch_error == f"error: {requests}: {doc['error']['message']}\n"


# ----------------------------------------------------------------------
# Stored responses are answered on the event loop


def test_a_stored_hit_does_not_wait_for_another_requests_search(
    scenario, monkeypatch
):
    """While the worker thread holds one request's search, a stored hot
    text on a second connection is answered from the event loop, equal
    to a hit the worker answers apart from its id and elapsed."""
    sc, db = scenario
    sql = block_to_sql(sc.query)
    slow = sql + " "  # another text: a miss, searched on the worker
    searching, release = threading.Event(), threading.Event()

    def held(request, **kwargs):
        if request.query == slow:
            searching.set()
            release.wait(timeout=30)
        return execute_request(request, **kwargs)

    monkeypatch.setattr("repro.serving.worker.execute_request", held)
    with running_daemon(sc.catalog, database=db) as daemon:
        address = ("127.0.0.1", daemon.tcp_port)
        try:
            with ServingClient.connect(address, timeout=5) as hot:
                with ServingClient.connect(address, timeout=5) as busy:
                    for _ in range(2):  # a marker, then the response
                        assert hot.rewrite(sql)["ok"]
                    worker_hit = daemon._pool.submit(
                        daemon._planner_cache.run,
                        request_from_wire({"sql": sql}, sc.catalog),
                    ).result(timeout=30)[0]
                    busy._sock.sendall(
                        (json.dumps({"sql": slow, "id": "slow"}) + "\n")
                        .encode()
                    )
                    assert searching.wait(timeout=30)
                    # Answered while the worker thread still holds the
                    # search; queued behind it, this would time out.
                    loop_hit = hot.rewrite(sql, id="loop")
                    release.set()
                    assert busy._read_until("slow")["ok"]
        finally:
            release.set()
    expected = json.loads(
        json.dumps(api.to_envelope(worker_hit, kind="rewrite"))
    )
    for doc in (loop_hit, expected):
        doc.pop("id", None)
        del doc["result"]["request_id"], doc["result"]["elapsed"]
    assert loop_hit == expected


def traced_from_wire(obj, catalog, line_no=0):
    """``request_from_wire`` plus a ``trace`` field. The wire carries
    none: a traced request reaches a daemon only from embedding code."""
    return dataclasses.replace(
        request_from_wire(obj, catalog, line_no),
        trace=bool(obj.get("trace")),
    )


@pytest.fixture
def executor_ids(monkeypatch):
    """The ids of the rewrites a daemon hands to its executor."""
    sent = []

    class Counting(serving_daemon.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sent.append(fn.args[0].request_id)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(serving_daemon, "ThreadPoolExecutor", Counting)
    return sent


def serving_counts(registry) -> dict:
    snapshot = registry.snapshot()
    counts = {
        outcome: snapshot.counter_value(
            "repro_serving_response_memo_total", outcome=outcome
        )
        for outcome in ("hit", "miss", "bypass")
    }
    for path in (WARM_LOCAL, WARM_SHARED, COLD):
        counts[path] = snapshot.counter_value(
            "repro_serving_planner_path_total", path=path
        )
    return counts


def replayed_counts(stream, quotas) -> dict:
    """The counters of ``stream`` answered by the synchronous core of a
    daemon that never serves, on a fresh copy of the scenario."""
    registry = MetricsRegistry()
    replay, _sc = never_started(tenant_quotas=quotas, metrics=registry)
    try:
        for line_no, (rid, obj) in enumerate(stream, 1):
            replay.handle(json.dumps({**obj, "id": rid}), line_no)
    finally:
        replay.close()
    return serving_counts(registry)


def test_only_unchanged_stored_responses_skip_the_executor(
    executor_ids, monkeypatch
):
    """Everything that needs planner work still reaches the worker
    thread; exact-stamp hits are answered on the loop. Either way the
    hit and path counters equal the same stream answered by ``handle``
    on a daemon that never serves."""
    monkeypatch.setattr(serving_daemon, "request_from_wire", traced_from_wire)
    quotas = {"capped": TenantQuota(deadline_ms_cap=60_000)}
    sc, db = loaded_scenario()
    sql = block_to_sql(sc.query)
    table = next(
        rel.name
        for view in sc.catalog.views.values()
        for rel in view.block.from_
    )
    width = len(sc.catalog.tables[table].columns)
    rows = [[i + 1000] * width for i in range(5)]
    stream = [
        ("miss", {"sql": sql}),
        ("store", {"sql": sql}),
        ("hit", {"sql": sql}),
        ("traced", {"sql": sql, "trace": True}),
        ("capped", {"sql": sql, "tenant": "capped"}),
        ("collect_metrics", {"sql": sql, "collect_metrics": True}),
        ("count_budget", {"sql": sql, "max_mappings": 1000}),
        ("hit_again", {"sql": sql}),
        ("update", {"op": "update", "table": table, "insert": rows}),
        ("after_update", {"sql": sql}),
        ("hit_after_update", {"sql": sql}),
    ]
    registry = MetricsRegistry()
    with running_daemon(
        sc.catalog, database=db, tenant_quotas=quotas, metrics=registry
    ) as daemon:
        with connect(daemon) as client:
            docs = [client.request({**obj, "id": rid}) for rid, obj in stream]
    assert all(doc["ok"] for doc in docs), docs
    assert executor_ids == [
        "miss", "store", "traced", "capped", "collect_metrics",
        "count_budget", "after_update",
    ]
    served = serving_counts(registry)
    assert (served["hit"], served["miss"], served["bypass"]) == (5, 2, 3)
    assert served == replayed_counts(stream, quotas)


# ----------------------------------------------------------------------
# Ids echo as sent; stored hits are spliced lines


def handled(daemon, objs) -> list:
    """Each op object through the daemon's synchronous core, in order, as
    the lines it answers."""
    return [
        daemon.handle(json.dumps(obj), line_no)
        for line_no, obj in enumerate(objs, 1)
    ]


def never_started(**kwargs):
    """A daemon that never binds a socket, and its scenario."""
    sc, db = loaded_scenario()
    return RewriteDaemon(sc.catalog, database=db, **kwargs), sc


def first_maintained_table(catalog) -> str:
    return next(
        rel.name for view in catalog.views.values() for rel in view.block.from_
    )


@pytest.mark.parametrize(
    "op",
    ["rewrite", "loop_hit", "refused", "error", "ping", "metrics", "update",
     "shutdown"],
)
@pytest.mark.parametrize("wire_id", [7, "7", -1, 2**70, 'q"\\\u00e9'])
def test_every_op_echoes_the_id_as_sent(op, wire_id):
    daemon, sc = never_started(queue_limit=0 if op == "refused" else 64)
    sql = block_to_sql(sc.query)
    table = first_maintained_table(sc.catalog)
    width = len(sc.catalog.tables[table].columns)
    prelude, obj = [], {"sql": sql}
    if op == "loop_hit":
        prelude = [{"sql": sql, "id": "warm"}] * 2
    elif op == "error":
        obj = {"sql": sql, "views": ["NoSuchView"]}
    elif op == "update":
        obj = {"op": "update", "table": table, "insert": [[9] * width]}
    elif op not in ("rewrite", "refused"):
        obj = {"op": op}
    try:
        line = handled(daemon, prelude + [{**obj, "id": wire_id}])[-1]
    finally:
        daemon.close()
    doc = json.loads(line)
    assert doc["ok"] is (op != "error")
    assert doc["id"] == wire_id and type(doc["id"]) is type(wire_id)
    if op == "loop_hit":
        assert isinstance(line, bytes) and doc["result"]["rewritings"]
    if op == "refused":
        assert doc["result"]["budget"]["tripped"] == ["queue_full"]


def test_an_id_that_is_neither_string_nor_integer_is_refused():
    daemon, sc = never_started()
    sql = block_to_sql(sc.query)
    try:
        lines = handled(
            daemon,
            [{"sql": sql, "id": {"a": 1}}, {"op": "ping", "id": [7]},
             {"sql": sql, "id": 1.5}, {"op": "ping", "id": True}],
        )
    finally:
        daemon.close()
    for line_no, line in enumerate(lines, 1):
        doc = json.loads(line)
        assert doc["ok"] is False and "id" not in doc
        assert doc["error"]["message"] == (
            f"line {line_no}: 'id' must be a string or an integer"
        )


def test_only_untraced_hits_with_an_id_are_spliced(monkeypatch):
    """A loop hit with an id is spliced into its stored line, encoding
    nothing; an id-less hit and a traced one are encoded."""
    monkeypatch.setattr(serving_daemon, "request_from_wire", traced_from_wire)
    encoded = []

    def counting(*args, **kwargs):
        encoded.append(kwargs.get("request_id"))
        return api.to_envelope(*args, **kwargs)

    monkeypatch.setattr("repro.serving.protocol.to_envelope", counting)
    daemon, sc = never_started()
    sql = block_to_sql(sc.query)

    out = {}
    try:
        for name, obj in (
            ("marker", {"sql": sql}),
            ("store", {"sql": sql}),
            ("first", {"sql": sql, "id": "first"}),  # encodes the template
            ("loop", {"sql": sql, "id": "loop"}),
            ("idless", {"sql": sql}),
            ("traced", {"sql": sql, "id": "traced", "trace": True}),
        ):
            before = len(encoded)
            out[name] = daemon.handle(json.dumps(obj), 1)
            out[name + "_encodes"] = len(encoded) - before
    finally:
        daemon.close()
    assert (out["loop_encodes"], out["idless_encodes"]) == (0, 1)
    assert out["traced_encodes"] == 1
    assert json.loads(out["traced"])["result"]["trace"]
    spliced, idless = json.loads(out["loop"]), json.loads(out["idless"])
    assert spliced["id"] == spliced["result"]["request_id"] == "loop"
    assert "id" not in idless
    for doc in (spliced, idless):
        doc.pop("id", None)
        del doc["result"]["request_id"], doc["result"]["elapsed"]
    assert spliced == idless


# ----------------------------------------------------------------------
# Updates race loop hits


def test_updates_racing_loop_hits_never_serve_an_old_answer():
    """``apply_update`` runs on the default executor and ``run`` on the
    worker thread while the loop thread answers stored hits, with a 1 µs
    switch interval. Every hit answered between two updates equals a
    cold execution against the catalog as it then was, and once the
    writer stops the memoized keys equal an uncached computation."""
    daemon, sc = never_started()
    catalog = sc.catalog
    sql = block_to_sql(sc.query)
    requests = [
        request_from_wire({"sql": sql + " " * blanks}, catalog)
        for blanks in range(2)
    ]
    pinned = request_from_wire(
        {"sql": sql, "views": [sc.views[0].name]}, catalog
    )
    table = first_maintained_table(catalog)
    width = len(catalog.tables[table].columns)
    rng = random.Random(11)

    def rows(n):
        return [tuple(rng.randrange(50) for _ in range(width)) for _ in range(n)]

    # From here on view counts are maintained ones, and inserts only
    # ever raise them; each text is stored before the race starts.
    daemon.apply_update(table, rows(1))
    for request in requests + requests:
        daemon._planner_cache.run(request)
    snapshots = {catalog.version: catalog.copy()}
    writes = {"started": 0, "done": 0}
    answers = []
    seen_keys = {}  # version -> the pinned request's memoized keys

    def write():
        writes["started"] += 1
        daemon.apply_update(table, rows(3))
        snapshots[catalog.version] = catalog.copy()
        writes["done"] += 1

    def state():
        return writes["started"], writes["done"], catalog.version

    async def writer(deadline):
        loop = asyncio.get_running_loop()
        while time.monotonic() < deadline:
            await loop.run_in_executor(None, write)
            # Give the worker time to rank again and the loop to answer
            # at this version before the next update moves it.
            version = catalog.version
            while time.monotonic() < deadline and not any(
                v == version for _i, v, _a in answers[-5:]
            ):
                await asyncio.sleep(0.002)

    async def worker(deadline):
        loop = asyncio.get_running_loop()
        cache = daemon._planner_cache
        while time.monotonic() < deadline:
            for request in requests + [pinned]:
                await loop.run_in_executor(daemon._pool, cache.run, request)

    async def reader(deadline):
        while time.monotonic() < deadline:
            for i, request in enumerate(requests):
                before = state()
                answer = daemon._planner_cache.stored_response(request)
                keys = serving_keys(pinned)
                if before == state() and before[0] == before[1]:
                    # No update in flight: the catalog is the snapshot.
                    seen_keys.setdefault(before[2], keys)
                    if answer is not None:
                        answers.append((i, before[2], answer))
            await asyncio.sleep(0)

    async def main():
        deadline = time.monotonic() + 1.5
        await asyncio.wait_for(
            asyncio.gather(writer(deadline), worker(deadline), reader(deadline)),
            timeout=60,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
        daemon.close()
    for request in requests + [pinned]:
        fresh = dataclasses.replace(request, catalog=catalog.copy())
        assert serving_keys(request) == serving_keys(fresh)
    for version, keys in seen_keys.items():
        fresh = dataclasses.replace(pinned, catalog=snapshots[version].copy())
        assert keys == serving_keys(fresh), version
    assert writes["done"] >= 2
    assert len({version for _i, version, _a in answers}) >= 2, writes

    def seen(response):
        return (
            [(r.rewriting.sql(), r.cost) for r in response.ranked],
            response.original_cost,
        )

    cold = {}
    for i, version, answer in answers:
        if (i, version) not in cold:
            cold[i, version] = seen(
                execute_request(
                    dataclasses.replace(
                        requests[i], catalog=snapshots[version]
                    )
                )
            )
        assert seen(answer) == cold[i, version]


# ----------------------------------------------------------------------
# The server adds nothing to the synchronous core

PARITY_QUOTAS = {
    "capped": TenantQuota(deadline_ms_cap=60_000),
    "noisy": TenantQuota(max_inflight=0),
}


def mixed_stream(seed: int, sc) -> list[str]:
    """Request lines: a hot text (miss, store, hit), then, in a seeded
    order, each of an ad hoc miss, a hot repeat, pinned views, a capped
    and a refused tenant, an update, a ping, metrics and a malformed
    line, and six more drawn from the same kinds."""
    rng = random.Random(seed)
    sql = block_to_sql(sc.query)
    table = first_maintained_table(sc.catalog)
    width = len(sc.catalog.tables[table].columns)
    mix = ["adhoc", "hot", "pinned", "capped", "refused", "update", "ping",
           "metrics", "malformed"]
    mix += rng.choices(mix, k=6)
    rng.shuffle(mix)
    kinds = ["hot"] * 3 + mix
    objs = {
        "hot": lambda: {"sql": sql},
        "adhoc": lambda: {"sql": sql + " " * rng.randrange(1, 6)},
        "pinned": lambda: {
            "sql": sql, "views": [rng.choice(sc.views).name]
        },
        "capped": lambda: {"sql": sql, "tenant": "capped"},
        "refused": lambda: {"sql": sql, "tenant": "noisy"},
        "update": lambda: {
            "op": "update", "table": table,
            "insert": [[rng.randrange(50) for _ in range(width)]],
        },
        "ping": lambda: {"op": "ping"},
        "metrics": lambda: {"op": "metrics"},
        "malformed": lambda: rng.choice(
            [{"sql": 5}, {"op": "nonsense"}, "{not json"]
        ),
    }
    lines = []
    for i, kind in enumerate(kinds):
        obj = objs[kind]()
        if isinstance(obj, dict):
            obj["id"] = f"{seed}-{i}" if i % 4 else i
            obj = json.dumps(obj)
        lines.append(obj)
    return lines


def masked(line: bytes) -> dict:
    """A reply with its timings taken out: ``elapsed``, and a histogram's
    sum and buckets (its count stays)."""
    doc = json.loads(line)
    result = doc.get("result") or {}
    result.pop("elapsed", None)
    for family in ((result.get("metrics") or {}).get("families") or {}).values():
        if family["kind"] == "histogram":
            family["samples"] = [
                [labels, value["count"]] for labels, value in family["samples"]
            ]
    return doc


def serving_counters(registry) -> dict:
    return {
        name: family["samples"]
        for name, family in registry.snapshot().families.items()
        if name.startswith("repro_serving_") and family["kind"] == "counter"
    }


def served_one_at_a_time(lines) -> tuple[list, dict]:
    clear_shared()  # the process-wide planner memos start empty
    sc, db = loaded_scenario()
    registry = MetricsRegistry()
    with running_daemon(
        sc.catalog, database=db, tenant_quotas=PARITY_QUOTAS,
        metrics=registry,
    ) as daemon:
        with connect(daemon) as client:
            replies = []
            for line in lines:
                client._sock.sendall((line + "\n").encode())
                replies.append(client._reader.readline().encode())
    return replies, serving_counters(registry)


def handled_by_a_twin(lines) -> tuple[list, dict]:
    clear_shared()
    registry = MetricsRegistry()
    daemon, _sc = never_started(tenant_quotas=PARITY_QUOTAS, metrics=registry)
    try:
        replies = [
            daemon.handle(line, line_no)
            for line_no, line in enumerate(lines, 1)
        ]
    finally:
        daemon.close()
    return replies, serving_counters(registry)


@pytest.mark.parametrize("seed", range(10))
def test_a_served_stream_equals_the_core_on_a_never_started_twin(seed):
    lines = mixed_stream(seed, loaded_scenario()[0])
    served, served_counts = served_one_at_a_time(lines)
    handled, handled_counts = handled_by_a_twin(lines)
    assert len(served) == len(handled) == len(lines)
    for line, a, b in zip(lines, served, handled):
        assert masked(a) == masked(b), line
    assert served_counts == handled_counts
    outcomes = {
        tuple(labels)
        for labels, _n in served_counts["repro_serving_requests_total"]
    }
    assert ("noisy", "refused") in outcomes
    memo = dict(
        (labels[0], n)
        for labels, n in served_counts["repro_serving_response_memo_total"]
    )
    assert memo["hit"] >= 1 and memo["miss"] >= 2
