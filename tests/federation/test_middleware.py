"""Federation middleware end-to-end on a live SQLite database.

The full loop the tentpole promises: ingest the catalog from the live
connection, rewrite incoming SQL text with the planner, emit
dialect-correct SQL, execute it on the same connection, and prove the
answer multiset-equal to the original query's.
"""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.federation import FederationSession, SqlRewriter, ingest_catalog
from repro.federation.middleware import SqlRewriteOutcome
from repro.oracle import rows_multiset_equal

SCHEMA = """
CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount INTEGER);
INSERT INTO sales VALUES
  (1,'east',10),(2,'east',20),(3,'west',5),(4,'north',30),(5,'west',7);
CREATE TABLE region_totals (region TEXT, total INTEGER, n INTEGER);
INSERT INTO region_totals
  SELECT region, SUM(amount), COUNT(amount) FROM sales GROUP BY region;
"""

MATERIALIZED = {
    "region_totals": (
        "SELECT region, SUM(amount) AS total, COUNT(amount) AS n "
        "FROM sales GROUP BY region"
    )
}

QUERY = "SELECT region, SUM(amount) AS s FROM sales GROUP BY region"


@pytest.fixture
def connection():
    conn = sqlite3.connect(":memory:")
    conn.executescript(SCHEMA)
    return conn


@pytest.fixture
def session(connection):
    return FederationSession(
        connection, dialect="sqlite", materialized=MATERIALIZED
    )


def test_rewrites_over_materialized_table(session):
    outcome = session.rewrite_sql(QUERY)
    assert outcome.rewritten
    assert outcome.used_views == ("region_totals",)
    assert '"region_totals"' in outcome.sql
    assert "sales" not in outcome.sql


def test_round_trip_multiset_equal(session, connection):
    result = session.execute(QUERY, verify=True)
    assert result.verified is True
    direct = connection.execute(QUERY).fetchall()
    assert rows_multiset_equal(result.rows, [tuple(r) for r in direct])
    assert sorted(result.rows) == [
        ("east", 30), ("north", 30), ("west", 12),
    ]


def test_unrewritable_query_passes_through(session):
    result = session.execute(
        "SELECT id, amount FROM sales WHERE region = 'east'", verify=True
    )
    assert not result.outcome.rewritten
    assert result.verified is True
    assert sorted(result.rows) == [(1, 10), (2, 20)]


def test_aux_views_are_created_and_dropped(connection):
    # Force a rewriting that may need aux CREATE VIEW statements; after
    # execute() no repro-created view may linger on the connection.
    session = FederationSession(
        connection, dialect="sqlite", materialized=MATERIALIZED,
        only_improving=False,
    )
    result = session.execute(QUERY, verify=True)
    assert result.verified is True
    leftover = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'view'"
    ).fetchall()
    assert leftover == []


def test_outcome_json_shape(session):
    doc = session.rewrite_sql(QUERY).to_json_dict()
    assert doc["schema"] == "repro-api/1"
    assert doc["kind"] == "sql-rewrite"
    assert doc["rewritten"] is True
    assert doc["used_views"] == ["region_totals"]
    assert doc["cost_rewritten"] < doc["cost_original"]


def test_sql_rewriter_without_connection():
    conn = sqlite3.connect(":memory:")
    conn.executescript(SCHEMA)
    catalog, _report = ingest_catalog(conn, materialized=MATERIALIZED)
    rewriter = SqlRewriter(catalog, dialect="postgres")
    outcome = rewriter.rewrite_sql(QUERY)
    assert outcome.rewritten
    assert outcome.dialect == "postgres"


def test_statements_share_one_planner(connection, monkeypatch):
    """SqlRewriter builds one planner and searches every statement on
    it; a count-budgeted statement plans cold, like on every front end."""
    from repro.core.planner import RewritePlanner
    from repro.obs.budget import SearchBudget

    built = []
    init = RewritePlanner.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RewritePlanner, "__init__", counting_init)
    catalog, _report = ingest_catalog(connection, materialized=MATERIALIZED)
    rewriter = SqlRewriter(catalog)
    for _ in range(3):
        assert rewriter.rewrite_sql(QUERY).rewritten
    assert built == [rewriter.planner]
    budgeted = SqlRewriter(catalog, budget=SearchBudget(max_mappings=100))
    for _ in range(2):
        assert budgeted.rewrite_sql(QUERY).rewritten
    assert len(built) == 4 and budgeted.planner in built


@pytest.mark.parametrize("rewritten", [True, False])
def test_a_statement_is_validated_once(session, monkeypatch, rewritten):
    """Text is parsed and validated by the search alone: the block it
    yields is not validated a second time on the way in."""
    from repro.blocks.query_block import QueryBlock

    validated = []
    validate = QueryBlock.validate

    def counting(self, *args, **kwargs):
        validated.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(QueryBlock, "validate", counting)
    sql = QUERY if rewritten else PASSTHROUGH_QUERY
    assert session.rewrite_sql(sql).rewritten is rewritten
    # The first block validated is the input's own.
    assert sum(1 for block in validated if block is validated[0]) == 1


PASSTHROUGH_QUERY = "SELECT id, amount FROM sales WHERE region = 'east'"
REWRITTEN_SQL = (
    'SELECT "region_totals"."region", SUM("region_totals"."total") AS "s"'
    '\nFROM "region_totals"\nGROUP BY "region_totals"."region"'
)
PASSTHROUGH_SQL = (
    'SELECT "sales"."id", "sales"."amount"\nFROM "sales"'
    "\nWHERE \"sales\".\"region\" = 'east'"
)


def test_outcomes_are_unchanged_on_both_branches(session, monkeypatch):
    import repro.federation.middleware as middleware

    emitted = []
    block_to_sql = middleware.block_to_sql

    def counting(block, dialect=None):
        emitted.append(block)
        return block_to_sql(block, dialect=dialect)

    monkeypatch.setattr(middleware, "block_to_sql", counting)
    assert session.rewrite_sql(QUERY) == SqlRewriteOutcome(
        input_sql=QUERY,
        dialect="sqlite",
        sql=REWRITTEN_SQL,
        statements=(REWRITTEN_SQL,),
        rewritten=True,
        used_views=("region_totals",),
        cost_original=1000.0,
        cost_rewritten=100.0,
    )
    # The rewritten branch emits only the rewriting, never the input.
    assert len(emitted) == 1
    emitted.clear()
    assert session.rewrite_sql(PASSTHROUGH_QUERY) == SqlRewriteOutcome(
        input_sql=PASSTHROUGH_QUERY,
        dialect="sqlite",
        sql=PASSTHROUGH_SQL,
        statements=(PASSTHROUGH_SQL,),
        rewritten=False,
        cost_original=100.0,
    )
    assert len(emitted) == 1


# ----------------------------------------------------------------------
# CLI paths
# ----------------------------------------------------------------------


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "live.db"
    conn = sqlite3.connect(str(path))
    conn.executescript(SCHEMA)
    conn.commit()
    conn.close()
    return str(path)


def _materialized_flag():
    return ["--materialized", "region_totals=" + MATERIALIZED["region_totals"]]


def test_cli_rewrite_sql_text(db_file, capsys):
    code = main(
        ["rewrite-sql", "--db", db_file, "--sql", QUERY]
        + _materialized_flag()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert '"region_totals"' in out
    assert "rewritten over region_totals" in out


def test_cli_rewrite_sql_execute_verify(db_file, capsys):
    code = main(
        ["rewrite-sql", "--db", db_file, "--sql", QUERY,
         "--execute", "--verify"]
        + _materialized_flag()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "-- verified: True" in out
    assert "('east', 30)" in out


def test_cli_rewrite_sql_json(db_file, capsys):
    code = main(
        ["rewrite-sql", "--db", db_file, "--sql", QUERY, "--execute",
         "--verify", "--json"]
        + _materialized_flag()
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["kind"] == "sql-rewrite"
    assert doc["ok"] is True
    assert doc["result"]["verified"] is True
    assert sorted(map(tuple, doc["result"]["rows"])) == [
        ["east", 30], ["north", 30], ["west", 12],
    ] or sorted(map(list, doc["result"]["rows"])) == [
        ["east", 30], ["north", 30], ["west", 12],
    ]


def test_cli_rewrite_sql_schema_source(tmp_path, capsys):
    schema = tmp_path / "schema.sql"
    schema.write_text(
        "CREATE TABLE sales (region TEXT, amount INT);\n"
        "CREATE VIEW totals (region, total, n) AS\n"
        "SELECT region, SUM(amount), COUNT(amount) "
        "FROM sales GROUP BY region;\n"
    )
    code = main(
        ["rewrite-sql", "--schema", str(schema), "--sql", QUERY,
         "--dialect", "duckdb", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["kind"] == "sql-rewrite"
    assert doc["result"]["dialect"] == "duckdb"
    assert doc["result"]["rewritten"] is True


def test_cli_rewrite_sql_execute_needs_db(tmp_path, capsys):
    schema = tmp_path / "schema.sql"
    schema.write_text("CREATE TABLE sales (region TEXT, amount INT);")
    code = main(
        ["rewrite-sql", "--schema", str(schema), "--sql", QUERY,
         "--execute"]
    )
    assert code == 2
    assert "--execute/--verify require --db" in capsys.readouterr().err


def test_cli_rewrite_sql_bad_materialized(db_file, capsys):
    code = main(
        ["rewrite-sql", "--db", db_file, "--sql", QUERY,
         "--materialized", "nonsense"]
    )
    assert code == 2
    assert "expected NAME=SELECT" in capsys.readouterr().err


def test_cli_rewrite_sql_unknown_dialect(db_file, capsys):
    code = main(
        ["rewrite-sql", "--db", db_file, "--sql", QUERY,
         "--dialect", "mssql"]
    )
    assert code == 2
    assert "unknown dialect 'mssql'" in capsys.readouterr().err


def test_cli_serve_sql_loop(db_file, capsys, monkeypatch):
    import io

    lines = "\n".join(
        [
            "not json",  # malformed first line: in-band, not fatal
            json.dumps({"id": 1, "sql": QUERY, "verify": True,
                        "execute": True}),
            "# a comment",
            json.dumps({"id": 2, "sql": "SELECT broken FROM nowhere"}),
            json.dumps({"id": 3, "sql": QUERY}),
            "{not json either",  # must not echo the previous line's id
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
    code = main(
        ["serve-sql", "--db", db_file] + _materialized_flag()
    )
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    docs = [json.loads(line) for line in out_lines]
    assert [d.get("id") for d in docs] == [None, 1, 2, 3, None]
    assert [d["kind"] for d in docs] == [
        "error", "sql-rewrite", "error", "sql-rewrite", "error",
    ]
    assert docs[1]["result"]["verified"] is True
    assert docs[3]["result"]["rewritten"] is True


def test_cli_serve_sql_refuses_a_non_string_sql_in_band(
    db_file, capsys, monkeypatch
):
    """The daemon's rule and message; the loop goes on to the next line."""
    import io

    lines = [json.dumps({"sql": 5}), json.dumps({"id": 2, "sql": QUERY})]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve-sql", "--db", db_file] + _materialized_flag())
    docs = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert code == 0
    assert [d["kind"] for d in docs] == ["error", "sql-rewrite"]
    assert docs[0]["error"]["message"] == (
        "line 1: 'sql' must be a non-empty SELECT string"
    )
    assert docs[1]["id"] == 2 and docs[1]["ok"] is True


def test_cli_serve_sql_answers_any_per_line_exception_in_band(
    db_file, capsys, monkeypatch
):
    import io

    def broken(self, sql):
        if "broken" in sql:
            raise RuntimeError("backend fell over")
        return rewrite_sql(self, sql)

    rewrite_sql = FederationSession.rewrite_sql
    monkeypatch.setattr(FederationSession, "rewrite_sql", broken)
    lines = [
        json.dumps({"id": 1, "sql": "SELECT broken FROM sales"}),
        json.dumps({"id": 2, "sql": QUERY}),
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["serve-sql", "--db", db_file] + _materialized_flag())
    docs = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert code == 0
    assert [(d["id"], d["ok"]) for d in docs] == [(1, False), (2, True)]
    assert docs[0]["error"]["message"] == "backend fell over"


def test_cli_serve_sql_metrics_frames(db_file, capsys, monkeypatch):
    import io

    lines = "\n".join(
        json.dumps({"id": i, "sql": QUERY, "verify": True, "execute": True})
        for i in range(3)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
    # Interval 0.0s < per-request latency: a frame follows every
    # response, plus the closing frame at EOF.
    code = main(
        ["serve-sql", "--db", db_file, "--metrics-interval", "1e-9"]
        + _materialized_flag()
    )
    assert code == 0
    docs = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    frames = [d for d in docs if d.get("kind") == "metrics-frame"]
    responses = [d for d in docs if d.get("kind") != "metrics-frame"]
    assert len(responses) == 3
    assert len(frames) == 4  # one per response + the closing frame
    assert [f["seq"] for f in frames] == [1, 2, 3, 4]
    for frame in frames:
        assert frame["schema"] == "repro-metrics/1"
        assert frame["elapsed"] >= 0.0
    families = frames[-1]["metrics"]["families"]
    # Cumulative, not per-window: the closing frame carries the whole
    # session's counters, including federation and service families.
    samples = families["repro_federation_statements_total"]["samples"]
    assert sum(v for _, v in samples) == 3
    assert families["repro_federation_verify_total"]["samples"]
    assert "repro_planner_searches_total" in families


def test_cli_serve_sql_no_frames_by_default(db_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"id": 1, "sql": QUERY}) + "\n")
    )
    code = main(["serve-sql", "--db", db_file] + _materialized_flag())
    assert code == 0
    docs = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert all(d.get("kind") != "metrics-frame" for d in docs)
