"""Every ``--json`` command and every daemon response speaks the same
``repro-api/1`` envelope: top-level ``schema`` / ``kind`` / ``ok`` and
exactly one of ``result`` or ``error``, serialized by the single
:func:`repro.api.to_envelope`."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.errors import ReproError
from repro.service.requests import RewriteResponse

SCHEMA_SQL = """
CREATE TABLE Calls (Call_Id, Plan_Id, Year, Charge);
CREATE VIEW Yearly (Plan_Id, Year, Total) AS
SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year;
"""

QUERY = (
    "SELECT Plan_Id, SUM(Charge) FROM Calls "
    "WHERE Year = 1995 GROUP BY Plan_Id"
)


def assert_envelope(doc, kind=None):
    """The conformance contract every JSON output must satisfy."""
    assert doc["schema"] == "repro-api/1"
    assert isinstance(doc["kind"], str) and doc["kind"]
    assert isinstance(doc["ok"], bool)
    assert "result" in doc or "error" in doc
    if doc["ok"]:
        assert "error" not in doc
    else:
        assert isinstance(doc["error"].get("message", ""), str)
    if "result" in doc:
        # The envelope owns the version tag; payloads never re-nest it.
        assert "schema" not in doc["result"]
        assert "kind" not in doc["result"]
    if kind is not None:
        assert doc["kind"] == kind
    return doc


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(SCHEMA_SQL)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


class TestCliEnvelopes:
    def test_rewrite(self, schema_file, capsys):
        code, out = run_json(
            capsys,
            ["rewrite", "--schema", schema_file, "--query", QUERY,
             "--json"],
        )
        doc = assert_envelope(json.loads(out.out), "rewrite")
        assert code == 0
        assert doc["ok"] is True
        assert doc["result"]["rewritings"]

    def test_explain(self, schema_file, capsys):
        code, out = run_json(
            capsys,
            ["explain", "--schema", schema_file, "--query", QUERY,
             "--json"],
        )
        doc = assert_envelope(json.loads(out.out), "explain")
        assert code == 0
        assert doc["result"]["views"]

    def test_batch_lines_and_report(self, schema_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "q1", "query": QUERY}) + "\n"
            + json.dumps({"id": "q2", "query": "SELECT Plan_Id, "
                          "SUM(Charge) FROM Calls GROUP BY Plan_Id"})
            + "\n"
        )
        code, out = run_json(
            capsys, ["batch", "--schema", schema_file, str(requests)]
        )
        assert code == 0
        lines = [json.loads(l) for l in out.out.splitlines() if l]
        assert [d["id"] for d in lines] == ["q1", "q2"]
        for doc in lines:
            assert_envelope(doc, "rewrite")
        report = assert_envelope(json.loads(out.err), "batch-report")
        assert report["result"]["batch"]["requests"] == 2

    def test_emit(self, schema_file, capsys):
        code, out = run_json(
            capsys,
            ["emit", "--schema", schema_file, "--query", QUERY,
             "--dialect", "postgres", "--json"],
        )
        doc = assert_envelope(json.loads(out.out), "emit")
        assert code == 0
        assert doc["result"]["dialect"] == "postgres"

    def test_emit_conformance(self, capsys):
        code, out = run_json(
            capsys, ["emit", "--conformance", "--dialect", "sqlite",
                     "--json"]
        )
        doc = assert_envelope(json.loads(out.out), "conformance")
        assert code == 0
        assert "-- case:" in doc["result"]["corpus"]

    def test_rewrite_sql(self, schema_file, capsys):
        code, out = run_json(
            capsys,
            ["rewrite-sql", "--schema", schema_file, "--sql", QUERY,
             "--json"],
        )
        doc = assert_envelope(json.loads(out.out), "sql-rewrite")
        assert code == 0
        assert "rewritten" in doc["result"]

    def test_serve_sql(self, schema_file, capsys, monkeypatch):
        import io

        lines = [
            json.dumps({"id": "ok", "sql": QUERY}),
            json.dumps({"id": "bad", "sql": "SELECT x FROM nowhere"}),
            "{not json",
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        code, out = run_json(capsys, ["serve-sql", "--schema", schema_file])
        assert code == 0
        ok, bad, malformed = map(json.loads, out.out.splitlines())
        assert assert_envelope(ok, "sql-rewrite")["id"] == "ok"
        assert ok["result"]["rewritten"] is True
        assert assert_envelope(bad, "error")["id"] == "bad"
        assert bad["error"]["message"] == "unknown relation nowhere"
        assert "id" not in assert_envelope(malformed, "error")
        assert malformed["error"]["message"].startswith(
            "line 3: not valid JSON"
        )

    def test_fuzz(self, tmp_path, capsys):
        code, out = run_json(
            capsys,
            ["fuzz", "--max-scenarios", "5", "--seed", "1", "--json",
             "--out-dir", str(tmp_path / "out")],
        )
        doc = assert_envelope(json.loads(out.out), "fuzz-stats")
        assert code == 0
        assert doc["result"]["scenarios"] == 5


class TestServeEnvelopes:
    def test_daemon_responses_conform(self):
        from repro.workloads.random_queries import random_scenario
        from repro.blocks.to_sql import block_to_sql
        from repro.serving import ServingClient
        from tests.serving.conftest import running_daemon

        sc = random_scenario(7)
        sql = block_to_sql(sc.query)
        with running_daemon(sc.catalog) as daemon:
            with ServingClient.connect(
                ("127.0.0.1", daemon.tcp_port)
            ) as client:
                assert_envelope(client.ping(), "ping")
                assert_envelope(client.rewrite(sql), "rewrite")
                assert_envelope(client.metrics(), "metrics")
                bad = client.request({"op": "bogus"})
                assert_envelope(bad, "error")
                assert bad["ok"] is False
                assert_envelope(client.shutdown(), "shutdown")


class TestToEnvelope:
    def test_dict_payload(self):
        doc = api.to_envelope({"x": 1}, kind="thing", request_id="a")
        assert doc == {
            "schema": "repro-api/1", "kind": "thing", "ok": True,
            "id": "a", "result": {"x": 1},
        }

    def test_inner_kind_hoisted_and_schema_dropped(self):
        doc = api.to_envelope(
            {"schema": "repro-api/1", "kind": "inner", "x": 1}
        )
        assert doc["kind"] == "inner"
        assert doc["result"] == {"x": 1}

    def test_inner_error_marks_not_ok(self):
        doc = api.to_envelope({"kind": "rewrite", "error": "boom"})
        assert doc["ok"] is False
        assert doc["error"] == {"message": "boom"}

    def test_error_only(self):
        doc = api.to_envelope(error=ReproError("nope"), kind="error")
        assert doc["ok"] is False
        assert "result" not in doc
        assert doc["error"]["message"] == "nope"

    def test_request_id_from_payload(self):
        doc = api.to_envelope({"request_id": "r7", "x": 1})
        assert doc["id"] == "r7"

    def test_object_with_to_json_dict(self):
        response = api.rewrite(QUERY, _catalog())
        doc = api.to_envelope(response)
        assert_envelope(doc, "rewrite")


def test_docs_list_every_rewrite_field():
    """``docs/api.md`` names exactly the keys a ``rewrite`` payload has."""
    doc = (Path(__file__).parent.parent / "docs" / "api.md").read_text()
    bullet = re.search(r"^\* `rewrite` — (.*?)^\* ", doc, re.S | re.M)
    assert bullet is not None, "docs/api.md lost its rewrite field list"
    # Drop the parenthetical that documents each rewriting's own keys.
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", bullet[1]))
    keys = set(RewriteResponse().to_json_dict()) - {"schema", "kind"}
    assert sorted(listed) == sorted(keys)


def _catalog():
    from repro.catalog.load import load_schema

    return load_schema(SCHEMA_SQL)[0]
