"""CSV persistence for tables and databases."""

import pytest

from repro import Catalog, Database, table
from repro.engine.io import (
    load_database,
    read_table_csv,
    save_database,
    write_table_csv,
)
from repro.engine.table import Table
from repro.errors import SchemaError


@pytest.fixture
def catalog():
    return Catalog(
        [
            table("R", ["a", "b"]),
            table("S", ["c"]),
        ]
    )


class TestTableRoundtrip:
    def test_types_inferred(self, tmp_path):
        path = tmp_path / "t.csv"
        original = Table(("a", "b", "c"), [(1, 2.5, "x"), (-3, 0.0, "y z")])
        write_table_csv(str(path), original)
        loaded = read_table_csv(str(path))
        assert loaded.columns == original.columns
        assert loaded.rows == original.rows
        assert isinstance(loaded.rows[0][0], int)
        assert isinstance(loaded.rows[0][1], float)
        assert isinstance(loaded.rows[0][2], str)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(str(path), Table(("x", "y"), [(1, 2)]))
        with pytest.raises(SchemaError):
            read_table_csv(str(path), expected_columns=("a", "b"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_table_csv(str(path))

    def test_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(str(path), Table(("a",), []))
        loaded = read_table_csv(str(path))
        assert loaded.columns == ("a",) and loaded.rows == []


class TestDatabaseRoundtrip:
    def test_save_and_load(self, catalog, tmp_path):
        db = Database(catalog, {"R": [(1, 2), (3, 4)], "S": [("x",)]})
        save_database(db, str(tmp_path / "data"))
        loaded = load_database(catalog, str(tmp_path / "data"))
        assert loaded.table("R").rows == [(1, 2), (3, 4)]
        assert loaded.table("S").rows == [("x",)]

    def test_missing_file_means_empty_table(self, catalog, tmp_path):
        directory = tmp_path / "data"
        directory.mkdir()
        write_table_csv(str(directory / "R.csv"), Table(("a", "b"), [(1, 2)]))
        db = load_database(catalog, str(directory))
        assert db.table("S").rows == []

    def test_unknown_file_rejected(self, catalog, tmp_path):
        directory = tmp_path / "data"
        directory.mkdir()
        write_table_csv(str(directory / "Ghost.csv"), Table(("z",), []))
        with pytest.raises(SchemaError):
            load_database(catalog, str(directory))

    def test_row_counts_updated_for_costing(self, catalog, tmp_path):
        directory = tmp_path / "data"
        directory.mkdir()
        write_table_csv(
            str(directory / "R.csv"),
            Table(("a", "b"), [(i, i) for i in range(50)]),
        )
        load_database(catalog, str(directory))
        assert catalog.table("R").row_count == 50


class TestCliQuery:
    def test_query_over_csv(self, catalog, tmp_path, capsys):
        from repro.cli import main

        schema = tmp_path / "schema.sql"
        schema.write_text(
            "CREATE TABLE R (a INT, b INT);\n"
            "CREATE VIEW V (a, s) AS SELECT a, SUM(b) FROM R GROUP BY a;\n"
        )
        data = tmp_path / "data"
        data.mkdir()
        write_table_csv(
            str(data / "R.csv"),
            Table(("a", "b"), [(1, 10), (1, 20), (2, 5)]),
        )
        code = main(
            [
                "query",
                "--schema",
                str(schema),
                "--data",
                str(data),
                "--query",
                "SELECT a, SUM(b) FROM R GROUP BY a",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "30" in out and "2 rows" in out

    def test_query_uses_views_when_cheaper(self, tmp_path, capsys):
        from repro.cli import main

        schema = tmp_path / "schema.sql"
        schema.write_text(
            "CREATE TABLE R (a INT, b INT);\n"
            "CREATE VIEW V (a, s, n) AS "
            "SELECT a, SUM(b), COUNT(b) FROM R GROUP BY a;\n"
        )
        data = tmp_path / "data"
        data.mkdir()
        write_table_csv(
            str(data / "R.csv"),
            Table(("a", "b"), [(i % 3, i) for i in range(200)]),
        )
        code = main(
            [
                "query",
                "--schema",
                str(schema),
                "--data",
                str(data),
                "--use-views",
                "--query",
                "SELECT a, SUM(b) FROM R GROUP BY a",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rewritten over V" in out

    def test_query_with_from_subquery_refused(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro import cli

        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE R (a INT, b INT);\n")
        data = tmp_path / "data"
        data.mkdir()
        write_table_csv(str(data / "R.csv"), Table(("a", "b"), [(1, 10)]))
        src = str(Path(cli.__file__).parents[1])
        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "query",
                "--schema", str(schema), "--data", str(data),
                "--query", "SELECT t.a FROM (SELECT a FROM R) t",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert run.returncode != 0
        assert (
            "FROM-clause subqueries (single-block queries only)" in run.stderr
        )
        assert "Traceback" not in run.stderr
        assert run.stdout == ""
