"""Catalog and TableSchema metadata."""

import pytest

from repro.blocks.normalize import parse_view
from repro.catalog.fds import fd
from repro.catalog.schema import Catalog, TableSchema, table
from repro.errors import SchemaError


class TestTableSchema:
    def test_constructor_helpers(self):
        t = table("R", ["a", "b"], key=["a"], row_count=5)
        assert t.keys == (frozenset({"a"}),)
        assert t.has_key and t.row_count == 5

    def test_multiple_candidate_keys(self):
        t = table("R", ["a", "b"], key=["a"], keys=[["b"]])
        assert len(t.keys) == 2

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("R", ("a", "a"))

    def test_bad_key_rejected(self):
        with pytest.raises(SchemaError):
            table("R", ["a"], key=["zzz"])

    def test_bad_fd_rejected(self):
        with pytest.raises(SchemaError):
            table("R", ["a"], fds=[fd({"a"}, {"zzz"})])

    def test_all_fds_includes_key_fd(self):
        t = table("R", ["a", "b"], key=["a"])
        deps = t.all_fds()
        assert any(dep.lhs == {"a"} and "b" in dep.rhs for dep in deps)


class TestCatalog:
    def test_resolution(self):
        cat = Catalog([table("R", ["a", "b"])])
        assert cat.is_table("R") and not cat.is_view("R")
        assert cat.columns_of("R") == ("a", "b")

    def test_duplicate_name_rejected(self):
        cat = Catalog([table("R", ["a"])])
        with pytest.raises(SchemaError):
            cat.add_table(table("R", ["x"]))

    def test_view_name_clash_rejected(self):
        cat = Catalog([table("R", ["a", "b"])])
        view = parse_view("CREATE VIEW R AS SELECT a FROM R", cat)
        with pytest.raises(SchemaError):
            cat.add_view(view)

    def test_unknown_names(self):
        cat = Catalog()
        with pytest.raises(SchemaError):
            cat.table("X")
        with pytest.raises(SchemaError):
            cat.view("X")
        with pytest.raises(SchemaError):
            cat.columns_of("X")
        with pytest.raises(SchemaError):
            cat.row_count("X")

    def test_view_columns(self):
        cat = Catalog([table("R", ["a", "b"])])
        view = parse_view(
            "CREATE VIEW V (x, n) AS SELECT a, COUNT(b) FROM R GROUP BY a",
            cat,
        )
        cat.add_view(view, row_count=10)
        assert cat.columns_of("V") == ("x", "n")
        assert cat.row_count("V") == 10

    def test_view_row_count_estimated_when_unset(self):
        cat = Catalog([table("R", ["a", "b"], row_count=1000)])
        view = parse_view(
            "CREATE VIEW V (x, n) AS SELECT a, COUNT(b) FROM R GROUP BY a",
            cat,
        )
        cat.add_view(view)
        assert 1 <= cat.row_count("V") <= 1000

    def test_set_row_count(self):
        cat = Catalog([table("R", ["a", "b"])])
        view = parse_view("CREATE VIEW V (x) AS SELECT a FROM R", cat)
        cat.add_view(view)
        cat.set_row_count("V", 77)
        assert cat.row_count("V") == 77

    def test_copy_is_independent(self):
        cat = Catalog([table("R", ["a", "b"])])
        clone = cat.copy()
        clone.add_table(table("S", ["c"]))
        assert not cat.is_table("S")


class Recording(Catalog):
    """A catalog that records what its relations were each time its
    version moved."""

    def __init__(self, *args):
        self.seen = []
        super().__init__(*args)

    @property
    def version(self):
        return self.__dict__.get("_version", 0)

    @version.setter
    def version(self, value):
        self.__dict__["_version"] = value
        self.seen.append(self.state())

    def state(self):
        return (
            self.tables,
            self.views,
            {name: self.row_count(name) for name in self.views},
        )


class TestVersion:
    """Every mutator moves ``version``, after it writes."""

    def test_every_mutator_moves_the_version_after_writing(self):
        cat = Recording([table("R", ["a", "b"])])
        view = parse_view(
            "CREATE VIEW V (x, n) AS SELECT a, COUNT(b) FROM R GROUP BY a",
            cat,
        )
        mutations = [
            lambda: cat.add_table(table("S", ["c"])),
            lambda: cat.add_view(view),
            lambda: cat.set_row_count("V", 5),
            lambda: cat.set_table_row_count("R", 99),
            lambda: cat.remove_view("V"),
            lambda: cat.add_view(view, row_count=3),
        ]
        for mutation in mutations:
            version = cat.version
            mutation()
            assert cat.version == version + 1
            assert cat.seen[-1] == cat.state()

    def test_a_refused_mutation_moves_nothing(self):
        cat = Catalog([table("R", ["a"])])
        version = cat.version
        for refused in (
            lambda: cat.add_table(table("R", ["x"])),
            lambda: cat.set_row_count("Nope", 1),
            lambda: cat.set_table_row_count("Nope", 1),
            lambda: cat.remove_view("Nope"),
        ):
            with pytest.raises(SchemaError):
                refused()
        assert cat.version == version

    def test_the_memo_is_dropped_when_the_version_moves(self):
        cat = Catalog([table("R", ["a"])])
        cat.memo()["k"] = 1
        assert cat.memo() == {"k": 1}
        cat.set_table_row_count("R", 5)
        assert cat.memo() == {}
