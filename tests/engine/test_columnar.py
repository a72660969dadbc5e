"""The columnar engine: batches, kernels, and row-engine parity.

The row engine is the parity oracle for the vectorized executor (see
``docs/engine.md``): every query must produce the same *multiset* of
rows under ``engine="row"`` and ``engine="columnar"``. These tests pin
that contract at three levels — Batch/kernel units, hand-picked
workload queries, and a randomized sweep that additionally pulls in
SQLite as an independent third backend.
"""

from fractions import Fraction

import pytest

from repro.blocks.exprs import Arith, ArithOp
from repro.blocks.normalize import parse_query, parse_view
from repro.blocks.terms import Column, Comparison, Constant, Op
from repro.catalog.schema import Catalog, table
from repro.engine import COLUMNAR_AUTO_THRESHOLD, Database, Table
from repro.engine.columnar import (
    Batch,
    compile_filter_kernel,
    compile_value_kernel,
    evaluate_block_columnar,
)
from repro.errors import EvaluationError
from repro.oracle.values import rows_multiset_equal

A, B, C, D = Column("A"), Column("B"), Column("C"), Column("D")


@pytest.fixture
def catalog():
    return Catalog([table("R", ["A", "B"]), table("S", ["C", "D"])])


def assert_engine_parity(db, sql):
    """Both engines agree (multiset) on ``sql``; returns the rows."""
    row = db.execute(sql, engine="row").rows
    col = db.execute(sql, engine="columnar").rows
    assert rows_multiset_equal(row, col), (
        f"engine disagreement on {sql!r}:\n  row={sorted(map(str, row))}"
        f"\n  columnar={sorted(map(str, col))}"
    )
    return col


# ----------------------------------------------------------------------
# Batch
# ----------------------------------------------------------------------


class TestBatch:
    def test_identity_column_is_not_copied(self):
        data = [1, 2, 3]
        batch = Batch.from_columns({A: data}, 3)
        assert batch.column(A) is data

    def test_select_composes_positions(self):
        batch = Batch.from_columns({A: [10, 20, 30, 40]}, 4)
        sub = batch.select([0, 2]).select([1])
        assert sub.length == 1
        assert sub.column(A) == [30]

    def test_gather_is_cached(self):
        batch = Batch.from_columns({A: [1, 2, 3]}, 3).select([2, 0])
        first = batch.column(A)
        assert first == [3, 1]
        assert batch.column(A) is first

    def test_join_pairs_rows(self):
        left = Batch.from_columns({A: [1, 2]}, 2)
        right = Batch.from_columns({C: [5, 6]}, 2)
        joined = left.join(right, [0, 1, 1], [1, 0, 1])
        assert joined.rows([A, C]) == [(1, 6), (2, 5), (2, 6)]

    def test_cross_product(self):
        left = Batch.from_columns({A: [1, 2]}, 2)
        right = Batch.from_columns({C: [5, 6]}, 2)
        assert sorted(left.cross(right).rows([A, C])) == [
            (1, 5), (1, 6), (2, 5), (2, 6),
        ]

    def test_empty_binds_all_columns(self):
        batch = Batch.empty([[A, B], [C]])
        assert batch.length == 0
        assert batch.column(A) == []
        assert batch.column(C) == []

    def test_unbound_column_raises(self):
        batch = Batch.from_columns({A: [1]}, 1)
        with pytest.raises(EvaluationError, match="unbound column"):
            batch.column(C)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------


class TestValueKernels:
    def batch(self, a, b):
        return Batch.from_columns({A: a, B: b}, len(a))

    def test_arith_propagates_null(self):
        kernel = compile_value_kernel(Arith(ArithOp.ADD, A, B))
        assert kernel(self.batch([1, None, 3], [10, 20, None])) == [
            11, None, None,
        ]

    def test_division_by_zero_is_null(self):
        kernel = compile_value_kernel(Arith(ArithOp.DIV, A, B))
        assert kernel(self.batch([6, 6, None], [0, 3, 3])) == [
            None, Fraction(2), None,
        ]

    def test_int_division_is_exact(self):
        kernel = compile_value_kernel(Arith(ArithOp.DIV, A, B))
        assert kernel(self.batch([1], [3])) == [Fraction(1, 3)]

    def test_constant_broadcasts(self):
        kernel = compile_value_kernel(Constant(7))
        assert kernel(self.batch([1, 2], [0, 0])) == [7, 7]


class TestFilterKernels:
    def batch(self, a, b=None):
        cols = {A: a}
        if b is not None:
            cols[B] = b
        return Batch.from_columns(cols, len(a))

    def test_null_never_passes_any_comparison(self):
        batch = self.batch([None, 1, None, 2])
        for op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GE, Op.GT):
            keep = compile_filter_kernel(Comparison(A, op, Constant(1)))(
                batch
            )
            assert None not in [batch.column(A)[i] for i in keep], op

    def test_constant_on_the_left_is_flipped(self):
        batch = self.batch([1, 5, 3])
        keep = compile_filter_kernel(Comparison(Constant(3), Op.LT, A))(
            batch
        )
        assert keep == [1]

    def test_column_vs_column_null_guard(self):
        batch = self.batch([1, None, 2], [1, 1, None])
        keep = compile_filter_kernel(Comparison(A, Op.EQ, B))(batch)
        assert keep == [0]

    def test_constant_vs_constant_decided_once(self):
        batch = self.batch([1, 2])
        true_k = compile_filter_kernel(
            Comparison(Constant(1), Op.LT, Constant(2))
        )
        false_k = compile_filter_kernel(
            Comparison(Constant(2), Op.LT, Constant(1))
        )
        assert true_k(batch) == [0, 1]
        assert false_k(batch) == []

    def test_incomparable_types_raise_like_row_engine(self):
        batch = self.batch([1, "x"])
        kernel = compile_filter_kernel(Comparison(A, Op.LT, Constant(5)))
        with pytest.raises(EvaluationError, match="cannot compare"):
            kernel(batch)


# ----------------------------------------------------------------------
# Executor parity with the row engine
# ----------------------------------------------------------------------


class TestExecutorParity:
    def db(self, catalog, r_rows, s_rows=()):
        return Database(catalog, {"R": r_rows, "S": s_rows})

    def test_projection_and_distinct(self, catalog):
        db = self.db(catalog, [(1, 10), (1, 20), (1, 10)])
        assert assert_engine_parity(db, "SELECT A FROM R") == [
            (1,), (1,), (1,),
        ]
        assert assert_engine_parity(db, "SELECT DISTINCT A FROM R") == [
            (1,),
        ]

    def test_equijoin_multiplicities(self, catalog):
        db = self.db(
            catalog, [(1, 0), (1, 0), (2, 0)], [(1, 5), (1, 6), (3, 7)]
        )
        rows = assert_engine_parity(
            db, "SELECT A, D FROM R, S WHERE A = C"
        )
        assert sorted(rows) == [(1, 5), (1, 5), (1, 6), (1, 6)]

    def test_self_join(self, catalog):
        db = self.db(catalog, [(1, 2), (2, 3)])
        rows = assert_engine_parity(
            db, "SELECT x.A, y.B FROM R x, R y WHERE x.B = y.A"
        )
        assert rows == [(1, 3)]

    def test_deferred_cross_relation_inequality(self, catalog):
        # A non-equi predicate across relations cannot be pushed down or
        # hashed: it must run as a deferred filter after the join.
        db = self.db(catalog, [(1, 0), (5, 0)], [(3, 0), (4, 0)])
        rows = assert_engine_parity(db, "SELECT A, C FROM R, S WHERE A < C")
        assert sorted(rows) == [(1, 3), (1, 4)]

    def test_constant_false_where_skips_scan(self, catalog):
        db = self.db(catalog, [(1, 2)])
        assert assert_engine_parity(db, "SELECT A FROM R WHERE 1 = 2") == []

    def test_scalar_aggregate_over_empty_input(self, catalog):
        db = self.db(catalog, [])
        rows = assert_engine_parity(
            db, "SELECT SUM(A) AS s, COUNT(A) AS n FROM R"
        )
        assert rows == [(None, 0)]

    def test_grouped_aggregation_with_having(self, catalog):
        db = self.db(catalog, [(1, 10), (1, 20), (2, 5), (3, 1)])
        rows = assert_engine_parity(
            db,
            "SELECT A, SUM(B) AS s FROM R GROUP BY A HAVING SUM(B) > 4",
        )
        assert sorted(rows) == [(1, 30), (2, 5)]

    def test_group_expression_arithmetic(self, catalog):
        db = self.db(catalog, [(1, 10), (1, 20)])
        rows = assert_engine_parity(
            db, "SELECT A, SUM(B) / COUNT(B) AS avg FROM R GROUP BY A"
        )
        assert rows == [(1, 15)]

    def test_cross_product_no_join_edge(self, catalog):
        db = self.db(catalog, [(1, 0), (2, 0)], [(5, 0)])
        rows = assert_engine_parity(db, "SELECT A, C FROM R, S")
        assert sorted(rows) == [(1, 5), (2, 5)]

    def test_multi_column_join_key(self, catalog):
        db = self.db(
            catalog,
            [(1, 5), (1, 6), (2, 5)],
            [(1, 5), (2, 5), (2, 6)],
        )
        rows = assert_engine_parity(
            db, "SELECT A, B FROM R, S WHERE A = C AND B = D"
        )
        assert sorted(rows) == [(1, 5), (2, 5)]

    def test_query_local_views(self, catalog):
        db = self.db(catalog, [(1, 10), (2, 20)])
        working = catalog.copy()
        local = parse_view(
            "CREATE VIEW V (x) AS SELECT A FROM R WHERE A > 1", working
        )
        working.add_view(local)
        query = parse_query("SELECT V.x FROM V", working)
        row, col = (
            db.execute(query, extra_views={"V": local}, engine=engine).rows
            for engine in ("row", "columnar")
        )
        assert row == col == [(2,)]


class TestWorkloadParity:
    def test_star_workload_queries(self):
        from repro.workloads.star import QUERIES, generate

        db = generate(n_sales=5000, seed=7).database()
        for sql in QUERIES.values():
            assert_engine_parity(db, sql)

    def test_telephony_workload_query(self):
        from repro.workloads.telephony import generate

        workload = generate(n_calls=5000, seed=7)
        db = workload.database()
        row = db.execute(workload.query, engine="row").rows
        col = db.execute(workload.query, engine="columnar").rows
        assert rows_multiset_equal(row, col)


class TestRandomizedThreeWayParity:
    def test_sweep_row_columnar_sqlite(self):
        # Every scenario runs on the row engine, the columnar engine and
        # SQLite; CrossChecker(engine="both") enforces pairwise multiset
        # agreement. (CI's `repro fuzz --engine both` step sweeps wider.)
        from repro.errors import OracleUnsupported
        from repro.fuzz.generate import fuzz_scenario
        from repro.oracle import CrossChecker

        checker = CrossChecker(max_rewritings=4, engine="both")
        checked = 0
        for seed in range(60):
            scenario = fuzz_scenario(seed)
            try:
                report = checker.check(scenario)
            except OracleUnsupported:
                continue
            assert report.ok, report.describe()
            checked += 1
        assert checked >= 40


# ----------------------------------------------------------------------
# The engine= mode switch
# ----------------------------------------------------------------------


class TestEngineSwitch:
    def test_unknown_engine_rejected(self, catalog):
        db = Database(catalog, {"R": [(1, 2)]})
        with pytest.raises(EvaluationError, match="unknown engine"):
            db.execute("SELECT A FROM R", engine="gpu")

    def test_database_default_engine(self, catalog):
        db = Database(catalog, {"R": [(1, 2)]}, engine="columnar")
        assert db.execute("SELECT A FROM R").rows == [(1,)]

    def test_auto_uses_columnar_above_threshold(self, catalog, monkeypatch):
        # The evaluator imports the columnar entry point lazily from the
        # package namespace, so patch it there.
        calls = []
        import repro.engine.columnar as columnar

        real = columnar.evaluate_block_columnar

        def spy(block, resolve):
            calls.append(block)
            return real(block, resolve)

        monkeypatch.setattr(columnar, "evaluate_block_columnar", spy)

        small = Database(catalog, {"R": [(1, 2)]})
        small.execute("SELECT A FROM R", engine="auto")
        assert not calls

        big_rows = [(i, i) for i in range(COLUMNAR_AUTO_THRESHOLD)]
        big = Database(catalog, {"R": big_rows})
        result = big.execute("SELECT A FROM R WHERE A < 3", engine="auto")
        assert calls
        assert sorted(result.rows) == [(0,), (1,), (2,)]


# ----------------------------------------------------------------------
# Table columnar support (as_columns / from_rows / multiset_equal)
# ----------------------------------------------------------------------


class TestTableColumnar:
    def test_as_columns_transposes_and_caches(self):
        t = Table(("A", "B"), [(1, 10), (2, 20)])
        cols = t.as_columns()
        assert cols == [[1, 2], [10, 20]]
        assert t.as_columns() is cols

    def test_invalidate_columns_drops_cache(self):
        t = Table(("A",), [(1,)])
        first = t.as_columns()
        t.rows.append((2,))
        t.invalidate_columns()
        assert t.as_columns() == [[1, 2]]
        assert t.as_columns() is not first

    def test_empty_table_columns(self):
        t = Table(("A", "B"), [])
        assert t.as_columns() == [[], []]

    def test_from_rows_adopts_without_copy(self):
        rows = [(1,), (2,)]
        t = Table.from_rows(("A",), rows)
        assert t.rows is rows
        assert t.columns == ("A",)

    def test_multiset_equal_single_pass(self):
        t = Table(("A",), [(1,), (2,), (2,)])
        assert t.multiset_equal(Table(("A",), [(2,), (1,), (2,)]))
        assert not t.multiset_equal(Table(("A",), [(1,), (2,), (3,)]))
        assert not t.multiset_equal(Table(("A",), [(1,), (2,)]))


# ----------------------------------------------------------------------
# Direct executor entry point
# ----------------------------------------------------------------------


class TestEvaluateBlockColumnar:
    def test_direct_call(self, catalog):
        block = parse_query("SELECT A, B FROM R WHERE A = 1", catalog)
        data = Table(("A", "B"), [(1, 10), (2, 20), (1, 30)])
        result = evaluate_block_columnar(block, lambda name: data)
        assert sorted(result.rows) == [(1, 10), (1, 30)]
