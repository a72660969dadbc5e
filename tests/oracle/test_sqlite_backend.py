"""The SQLite backend: dialect compilation, loading, materialization."""

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.engine.database import Database
from repro.errors import OracleUnsupported
from repro.oracle import SQLiteBackend, rows_multiset_equal
from repro.oracle import backends as backends_mod


@pytest.fixture
def catalog():
    return Catalog([table("R", ["a", "b"]), table("S", ["c", "d"])])


def test_division_compiles_to_real_cast(catalog):
    query = parse_query("SELECT R.a / R.b AS q FROM R", catalog)
    with SQLiteBackend() as backend:
        sql = backend.compile_block(query)
    assert "CAST(" in sql and "AS REAL" in sql, sql


def test_identifiers_are_quoted(catalog):
    query = parse_query("SELECT R.a FROM R", catalog)
    with SQLiteBackend() as backend:
        sql = backend.compile_block(query)
    assert '"R"' in sql and '"a"' in sql, sql


def test_load_and_execute(catalog):
    query = parse_query(
        "SELECT R.a, COUNT(R.b) AS n FROM R GROUP BY R.a", catalog
    )
    with SQLiteBackend() as backend:
        backend.create_table("R", ["a", "b"])
        backend.load_rows("R", [(1, 10), (1, 20), (2, 30)])
        rows = backend.execute_block(query)
    assert sorted(rows) == [(1, 2), (2, 1)]


def test_materialize_view_is_independent_of_engine(catalog):
    """SQLite evaluates the view body itself; rows must still agree with
    the engine's materialization."""
    view = parse_view(
        "CREATE VIEW V (a, s, n) AS "
        "SELECT R.a, SUM(R.b), COUNT(R.b) FROM R GROUP BY R.a",
        catalog,
    )
    catalog.add_view(view)
    instance = {"R": [(1, 10), (1, 20), (2, None)], "S": []}
    db = Database(catalog, instance)
    with SQLiteBackend() as backend:
        backend.create_table("R", ["a", "b"])
        backend.load_rows("R", instance["R"])
        sqlite_rows = backend.materialize_view(view)
        # Materialized as a *table*: queryable like any base relation.
        assert backend.fetch_table("V") == sqlite_rows
    assert rows_multiset_equal(db.materialize("V").rows, sqlite_rows)


def test_local_view_create_and_drop(catalog):
    view = parse_view(
        "CREATE VIEW W (a2) AS SELECT R.a FROM R WHERE R.b = 1", catalog
    )
    with SQLiteBackend() as backend:
        backend.create_table("R", ["a", "b"])
        backend.load_rows("R", [(7, 1), (8, 2)])
        backend.create_local_view(view)
        assert backend.fetch_table("W") == [(7,)]
        backend.drop_local_views()
        with pytest.raises(Exception):
            backend.fetch_table("W")


def test_old_sqlite_raises_oracle_unsupported(catalog, monkeypatch):
    """skip-with-reason path: a pre-3.9 library cannot create the aux
    views, and the caller must see a typed OracleUnsupported."""
    monkeypatch.setattr(
        backends_mod, "_SQLITE_VIEW_COLUMNS_MIN_VERSION", (999, 0, 0)
    )
    view = parse_view("CREATE VIEW W (a2) AS SELECT R.a FROM R", catalog)
    with SQLiteBackend() as backend:
        backend.create_table("R", ["a", "b"])
        with pytest.raises(OracleUnsupported):
            backend.create_local_view(view)
