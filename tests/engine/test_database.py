"""Database: data loading, view materialization, local views."""

import pytest

from repro.blocks.normalize import parse_view
from repro.catalog.schema import Catalog, table
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import SchemaError, UnsupportedSQLError


@pytest.fixture
def catalog():
    return Catalog([table("R", ["A", "B"])])


class TestLoading:
    def test_load_rows(self, catalog):
        db = Database(catalog, {"R": [(1, 2)]})
        assert db.table("R").rows == [(1, 2)]

    def test_load_table_object(self, catalog):
        db = Database(catalog)
        db.load("R", Table(("A", "B"), [(1, 2)]))
        assert len(db.table("R")) == 1

    def test_load_wrong_header_rejected(self, catalog):
        db = Database(catalog)
        with pytest.raises(SchemaError):
            db.load("R", Table(("X", "Y"), [(1, 2)]))

    def test_unknown_table_rejected(self, catalog):
        db = Database(catalog)
        with pytest.raises(SchemaError):
            db.load("Nope", [(1,)])

    def test_unloaded_table_is_empty(self, catalog):
        db = Database(catalog)
        assert db.table("R").rows == []


class TestViews:
    def test_materialize(self, catalog):
        view = parse_view(
            "CREATE VIEW V (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            catalog,
        )
        catalog.add_view(view)
        db = Database(catalog, {"R": [(1, 2), (1, 3)]})
        v = db.materialize("V")
        assert v.columns == ("A", "N")
        assert v.rows == [(1, 2)]

    def test_materialization_cached_and_invalidated(self, catalog):
        view = parse_view(
            "CREATE VIEW V (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            catalog,
        )
        catalog.add_view(view)
        db = Database(catalog, {"R": [(1, 2)]})
        first = db.materialize("V")
        assert db.materialize("V") is first  # cached
        db.load("R", [(1, 2), (2, 3)])
        assert len(db.materialize("V")) == 2  # cache invalidated on load

    def test_query_over_view(self, catalog):
        view = parse_view(
            "CREATE VIEW V (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            catalog,
        )
        catalog.add_view(view)
        db = Database(catalog, {"R": [(1, 2), (1, 3), (2, 9)]})
        result = db.execute("SELECT A FROM V WHERE N >= 2")
        assert result.rows == [(1,)]

    def test_extra_views_visible_only_per_call(self, catalog):
        local = parse_view(
            "CREATE VIEW Tmp (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            catalog,
        )
        db = Database(catalog, {"R": [(1, 2), (1, 3)]})
        # Build the query against a catalog copy that knows Tmp.
        query_catalog = catalog.copy()
        query_catalog.add_view(local)
        from repro.blocks.normalize import parse_query

        q = parse_query("SELECT N FROM Tmp", query_catalog)
        result = db.execute(q, extra_views={"Tmp": local})
        assert result.rows == [(2,)]
        with pytest.raises(SchemaError):
            db.execute(q)  # not registered globally

    def test_derived_table_text_refused(self, catalog):
        db = Database(catalog, {"R": [(1, 2)]})
        with pytest.raises(UnsupportedSQLError, match="FROM-clause subqueries"):
            db.execute("SELECT t.A FROM (SELECT A FROM R) t")

    def test_view_row_count_recorded(self, catalog):
        view = parse_view(
            "CREATE VIEW V (A, N) AS SELECT A, COUNT(B) FROM R GROUP BY A",
            catalog,
        )
        catalog.add_view(view)
        db = Database(catalog, {"R": [(1, 2), (2, 3)]})
        db.materialize("V")
        assert catalog.row_count("V") == 2
