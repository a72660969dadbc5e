"""Incremental view maintenance: correctness against full recomputation."""

import random

import pytest

from repro import Catalog, Database, parse_view, table
from repro.errors import SchemaError, UnsupportedSQLError
from repro.maintenance import MaintainedView


@pytest.fixture
def catalog():
    return Catalog(
        [
            table("R", ["A", "B", "V"]),
            table("S", ["C", "W"]),
        ]
    )


def make(catalog, view_sql, r_rows=(), s_rows=()):
    db = Database(catalog, {"R": list(r_rows), "S": list(s_rows)})
    view = parse_view(view_sql, catalog.copy())
    return MaintainedView(view, db), db


SUM_VIEW = (
    "CREATE VIEW V (A, S, N) AS "
    "SELECT A, SUM(V), COUNT(V) FROM R GROUP BY A"
)


class TestBasics:
    def test_initial_state_matches_full_eval(self, catalog):
        mv, _db = make(
            catalog, SUM_VIEW, r_rows=[(1, 0, 10), (1, 0, 5), (2, 0, 7)]
        )
        assert sorted(mv.table().rows) == [(1, 15, 2), (2, 7, 1)]
        assert mv.consistency_check()

    def test_insert_new_group(self, catalog):
        mv, _db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        mv.apply("R", inserts=[(3, 0, 4)])
        assert sorted(mv.table().rows) == [(1, 10, 1), (3, 4, 1)]

    def test_insert_existing_group(self, catalog):
        mv, _db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        mv.apply("R", inserts=[(1, 0, 2), (1, 0, 3)])
        assert mv.table().rows == [(1, 15, 3)]

    def test_delete_shrinks_group(self, catalog):
        mv, _db = make(
            catalog, SUM_VIEW, r_rows=[(1, 0, 10), (1, 0, 5)]
        )
        mv.apply("R", deletes=[(1, 0, 5)])
        assert mv.table().rows == [(1, 10, 1)]

    def test_delete_removes_group(self, catalog):
        mv, _db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10), (2, 0, 5)])
        mv.apply("R", deletes=[(2, 0, 5)])
        assert mv.table().rows == [(1, 10, 1)]

    def test_delete_missing_row_rejected(self, catalog):
        mv, _db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        with pytest.raises(ValueError):
            mv.apply("R", deletes=[(9, 9, 9)])

    def test_database_kept_in_sync(self, catalog):
        mv, db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        mv.apply("R", inserts=[(2, 0, 1)])
        assert len(db.table("R")) == 2

    def test_irrelevant_table_change_ignored(self, catalog):
        mv, _db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        before = mv.maintenance_rows
        mv.apply("S", inserts=[(1, 2)])
        assert mv.table().rows == [(1, 10, 1)]
        assert mv.maintenance_rows == before


class TestMinMax:
    VIEW = (
        "CREATE VIEW V (A, Lo, Hi) AS "
        "SELECT A, MIN(V), MAX(V) FROM R GROUP BY A"
    )

    def test_insert_updates_extrema(self, catalog):
        mv, _db = make(catalog, self.VIEW, r_rows=[(1, 0, 5)])
        mv.apply("R", inserts=[(1, 0, 2), (1, 0, 9)])
        assert mv.table().rows == [(1, 2, 9)]

    def test_delete_non_extremal_is_cheap(self, catalog):
        mv, _db = make(
            catalog, self.VIEW, r_rows=[(1, 0, 1), (1, 0, 5), (1, 0, 9)]
        )
        mv.apply("R", deletes=[(1, 0, 5)])
        assert mv.table().rows == [(1, 1, 9)]

    def test_delete_extremum_recomputes(self, catalog):
        mv, _db = make(
            catalog, self.VIEW, r_rows=[(1, 0, 1), (1, 0, 5), (1, 0, 9)]
        )
        mv.apply("R", deletes=[(1, 0, 9)])
        assert mv.table().rows == [(1, 1, 5)]
        mv.apply("R", deletes=[(1, 0, 1)])
        assert mv.table().rows == [(1, 5, 5)]

    def test_duplicate_extremum_survives_one_delete(self, catalog):
        mv, _db = make(
            catalog, self.VIEW, r_rows=[(1, 0, 9), (1, 0, 9), (1, 0, 2)]
        )
        mv.apply("R", deletes=[(1, 0, 9)])
        assert mv.table().rows == [(1, 2, 9)]


class TestJoinsAndSelfJoins:
    JOIN_VIEW = (
        "CREATE VIEW V (A, S) AS "
        "SELECT A, SUM(W) FROM R, S WHERE B = C GROUP BY A"
    )

    def test_join_view_insert_left(self, catalog):
        mv, _db = make(
            catalog,
            self.JOIN_VIEW,
            r_rows=[(1, 7, 0)],
            s_rows=[(7, 100), (7, 10)],
        )
        mv.apply("R", inserts=[(1, 7, 0)])
        assert mv.consistency_check()
        assert mv.table().rows == [(1, 220)]

    def test_join_view_insert_right(self, catalog):
        mv, _db = make(
            catalog,
            self.JOIN_VIEW,
            r_rows=[(1, 7, 0), (2, 8, 0)],
            s_rows=[(7, 100)],
        )
        mv.apply("S", inserts=[(8, 5), (7, 1)])
        assert mv.consistency_check()
        assert sorted(mv.table().rows) == [(1, 101), (2, 5)]

    def test_join_view_delete_right(self, catalog):
        mv, _db = make(
            catalog,
            self.JOIN_VIEW,
            r_rows=[(1, 7, 0)],
            s_rows=[(7, 100), (7, 10)],
        )
        mv.apply("S", deletes=[(7, 10)])
        assert mv.table().rows == [(1, 100)]

    def test_self_join_telescope(self, catalog):
        view_sql = (
            "CREATE VIEW V (A, N) AS "
            "SELECT x.A, COUNT(y.V) FROM R x, R y WHERE x.B = y.B "
            "GROUP BY x.A"
        )
        db = Database(catalog, {"R": [(1, 7, 0), (2, 7, 0)], "S": []})
        view = parse_view(view_sql, catalog.copy())
        mv = MaintainedView(view, db)
        assert mv.consistency_check()
        mv.apply("R", inserts=[(3, 7, 0)])
        assert mv.consistency_check()
        assert sorted(mv.table().rows) == [(1, 3), (2, 3), (3, 3)]
        mv.apply("R", deletes=[(1, 7, 0)])
        assert mv.consistency_check()


class TestConjunctiveViews:
    VIEW = "CREATE VIEW V (A, W) AS SELECT A, W FROM R, S WHERE B = C"

    def test_multiset_counts_maintained(self, catalog):
        mv, _db = make(
            catalog,
            self.VIEW,
            r_rows=[(1, 7, 0), (1, 7, 0)],
            s_rows=[(7, 5)],
        )
        assert mv.table().rows.count((1, 5)) == 2
        mv.apply("S", inserts=[(7, 5)])
        assert mv.table().rows.count((1, 5)) == 4
        mv.apply("R", deletes=[(1, 7, 0)])
        assert mv.table().rows.count((1, 5)) == 2
        assert mv.consistency_check()


class TestGlobalAggregates:
    VIEW = "CREATE VIEW V (N, S) AS SELECT COUNT(V), SUM(V) FROM R"

    def test_empty_input_single_row(self, catalog):
        mv, _db = make(catalog, self.VIEW)
        assert mv.table().rows == [(0, None)]

    def test_roundtrip_to_empty(self, catalog):
        mv, _db = make(catalog, self.VIEW, r_rows=[(1, 0, 5)])
        assert mv.table().rows == [(1, 5)]
        mv.apply("R", deletes=[(1, 0, 5)])
        assert mv.table().rows == [(0, None)]
        assert mv.consistency_check()


class TestHavingViews:
    VIEW = (
        "CREATE VIEW V (A, S) AS "
        "SELECT A, SUM(V) FROM R GROUP BY A HAVING SUM(V) > 10"
    )

    def test_group_crosses_threshold(self, catalog):
        mv, _db = make(catalog, self.VIEW, r_rows=[(1, 0, 6)])
        assert mv.table().rows == []
        mv.apply("R", inserts=[(1, 0, 6)])
        assert mv.table().rows == [(1, 12)]
        mv.apply("R", deletes=[(1, 0, 6)])
        assert mv.table().rows == []
        assert mv.consistency_check()


class TestGuards:
    def test_distinct_view_rejected(self, catalog):
        db = Database(catalog)
        view = parse_view(
            "CREATE VIEW V (A) AS SELECT DISTINCT A FROM R", catalog.copy()
        )
        with pytest.raises(UnsupportedSQLError):
            MaintainedView(view, db)

    def test_view_over_view_rejected(self, catalog):
        base = parse_view("CREATE VIEW W (A) AS SELECT A FROM R", catalog)
        catalog.add_view(base)
        stacked = parse_view("CREATE VIEW V (A) AS SELECT A FROM W", catalog)
        db = Database(catalog)
        with pytest.raises(UnsupportedSQLError):
            MaintainedView(stacked, db)


class TestRandomizedStream:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_update_stream(self, catalog, seed):
        """Property: after any stream of inserts/deletes, the maintained
        table equals a full recomputation."""
        rng = random.Random(seed)
        view_sql = rng.choice(
            [
                SUM_VIEW,
                TestMinMax.VIEW,
                TestJoinsAndSelfJoins.JOIN_VIEW,
                TestConjunctiveViews.VIEW,
                "CREATE VIEW V (A, Av) AS SELECT A, AVG(V) FROM R GROUP BY A",
            ]
        )
        r_rows = [
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 9))
            for _ in range(rng.randint(0, 6))
        ]
        s_rows = [
            (rng.randint(0, 2), rng.randint(0, 9))
            for _ in range(rng.randint(0, 4))
        ]
        mv, db = make(catalog, view_sql, r_rows=r_rows, s_rows=s_rows)
        for _step in range(12):
            target = rng.choice(["R", "S"])
            current = db.table(target).rows
            if current and rng.random() < 0.45:
                mv.apply(target, deletes=[rng.choice(current)])
            else:
                width = 3 if target == "R" else 2
                mv.apply(
                    target,
                    inserts=[
                        tuple(rng.randint(0, 3) for _ in range(width))
                    ],
                )
            assert mv.consistency_check(), (seed, _step, view_sql)


class TestRowCount:
    """``row_count()`` counts what ``table()`` would build."""

    VIEWS = [
        SUM_VIEW,
        TestMinMax.VIEW,
        TestHavingViews.VIEW,
        TestGlobalAggregates.VIEW,
        "CREATE VIEW V (N, S) AS SELECT COUNT(V), SUM(V) FROM R "
        "HAVING COUNT(V) > 2",
        "CREATE VIEW V (A, Lo) AS SELECT A, MIN(V) FROM R GROUP BY A "
        "HAVING MIN(V) < 5",
        TestConjunctiveViews.VIEW,
        TestJoinsAndSelfJoins.JOIN_VIEW,
        "CREATE VIEW V (A, N) AS SELECT x.A, COUNT(y.V) FROM R x, R y "
        "WHERE x.B = y.B GROUP BY x.A",
    ]

    @pytest.mark.parametrize("seed", range(60))
    def test_random_stream(self, catalog, seed):
        """Property: after every insert/delete batch — extremum deletes
        included — the count equals the materialization's length."""
        rng = random.Random(seed)
        view_sql = self.VIEWS[seed % len(self.VIEWS)]
        mv, db = make(catalog, view_sql)
        assert mv.row_count() == len(mv.table())
        for step in range(30):
            target = rng.choice(["R", "R", "S"])
            width = 3 if target == "R" else 2
            current = list(db.table(target).rows)
            rng.shuffle(current)
            deletes = current[: rng.randint(0, min(2, len(current)))]
            inserts = [
                tuple(rng.randint(0, 3) for _ in range(width))
                for _ in range(rng.randint(0, 3))
            ]
            mv.apply(target, inserts=inserts, deletes=deletes)
            assert mv.row_count() == len(mv.table()), (seed, step)
            assert mv.consistency_check(), (seed, step)


class TestAllOrNothing:
    VIEWS = [
        "CREATE VIEW P (A, V) AS SELECT A, V FROM R",
        SUM_VIEW,
        TestMinMax.VIEW,
    ]

    @pytest.mark.parametrize(
        "change, error",
        [
            # The second row breaks SUM after the first one was absorbed.
            ({"inserts": [(1, 0, 5), (2, 0, "y")]}, TypeError),
            ({"deletes": [(1, 0, 10)], "inserts": [(3, 0, "y")]}, TypeError),
            ({"deletes": [(1, 0, 10)], "inserts": [(3, 0)]}, SchemaError),
            ({"deletes": [(1, 0, 10), (7, 7, 7)]}, ValueError),
        ],
        ids=["bad_value", "delete_then_bad_value", "short_row", "absent"],
    )
    def test_a_failed_change_changes_nothing(self, catalog, change, error):
        from repro.maintenance import apply_change, register_delta_listener

        db = Database(catalog, {"R": [(1, 0, 10), (1, 0, 3)], "S": []})
        maintainers = [
            MaintainedView(parse_view(sql, catalog.copy()), db)
            for sql in self.VIEWS
        ]
        tables = [sorted(m.table().rows) for m in maintainers]
        heard = []
        unsubscribe = register_delta_listener(heard.append)
        try:
            with pytest.raises(error):
                apply_change(maintainers, "R", **change)
            assert heard == []  # no listener hears of a failed change
            assert db.table("R").rows == [(1, 0, 10), (1, 0, 3)]
            assert [sorted(m.table().rows) for m in maintainers] == tables
            # ... and the next valid change maintains every view.
            apply_change(
                maintainers, "R", inserts=[(2, 0, 4)], deletes=[(1, 0, 10)]
            )
            assert len(heard) == len(maintainers)
            assert all(m.consistency_check() for m in maintainers)
        finally:
            unsubscribe()

    def test_single_view_apply_is_all_or_nothing(self, catalog):
        mv, db = make(catalog, SUM_VIEW, r_rows=[(1, 0, 10)])
        with pytest.raises(TypeError):
            mv.apply("R", inserts=[(1, 0, 5), (1, 0, "y")])
        assert db.table("R").rows == [(1, 0, 10)]
        assert mv.table().rows == [(1, 10, 1)]
        assert mv.consistency_check()


class TestApplyChange:
    def test_coordinates_shared_database(self, catalog):
        from repro.maintenance import apply_change

        db = Database(catalog, {"R": [(1, 7, 3)], "S": [(7, 10)]})
        views = [
            parse_view(
                "CREATE VIEW V1 (A, S) AS SELECT A, SUM(V) FROM R GROUP BY A",
                catalog.copy(),
            ),
            parse_view(
                "CREATE VIEW V2 (A, N) AS "
                "SELECT x.A, COUNT(y.V) FROM R x, R y WHERE x.B = y.B "
                "GROUP BY x.A",
                catalog.copy(),
            ),
        ]
        maintainers = [MaintainedView(v, db) for v in views]
        apply_change(maintainers, "R", inserts=[(2, 7, 5)])
        apply_change(maintainers, "R", inserts=[(1, 7, 1)])
        apply_change(maintainers, "R", deletes=[(1, 7, 3)])
        for maintainer in maintainers:
            assert maintainer.consistency_check()
        assert len(db.table("R")) == 2

    def test_self_join_view_needs_pre_change_state(self, catalog):
        """The ordering hazard apply_change exists to prevent: a second
        maintainer with a self-join observing after the database changed
        computes wrong deltas."""
        from repro.maintenance import apply_change

        db = Database(catalog, {"R": [(1, 7, 3), (2, 7, 4)], "S": []})
        self_join = parse_view(
            "CREATE VIEW V2 (A, N) AS "
            "SELECT x.A, COUNT(y.V) FROM R x, R y WHERE x.B = y.B "
            "GROUP BY x.A",
            catalog.copy(),
        )
        simple = parse_view(
            "CREATE VIEW V1 (A, S) AS SELECT A, SUM(V) FROM R GROUP BY A",
            catalog.copy(),
        )
        maintainers = [MaintainedView(simple, db), MaintainedView(self_join, db)]

        # The WRONG protocol: first maintainer mutates the db, second
        # observes afterwards.
        maintainers[0].observe("R", inserts=[(3, 7, 9)], update_database=True)
        maintainers[1].observe("R", inserts=[(3, 7, 9)], update_database=False)
        assert not maintainers[1].consistency_check()

        # Rebuild and use the coordinator: all consistent.
        db2 = Database(catalog, {"R": [(1, 7, 3), (2, 7, 4)], "S": []})
        maintainers = [MaintainedView(simple, db2), MaintainedView(self_join, db2)]
        apply_change(maintainers, "R", inserts=[(3, 7, 9)])
        assert all(m.consistency_check() for m in maintainers)

    def test_mixed_databases_rejected(self, catalog):
        from repro.maintenance import apply_change

        db1 = Database(catalog, {"R": [], "S": []})
        db2 = Database(catalog.copy(), {"R": [], "S": []})
        view_sql = "CREATE VIEW V (A, S) AS SELECT A, SUM(V) FROM R GROUP BY A"
        m1 = MaintainedView(parse_view(view_sql, catalog.copy()), db1)
        m2 = MaintainedView(parse_view(view_sql, catalog.copy()), db2)
        with pytest.raises(ValueError):
            apply_change([m1, m2], "R", inserts=[(1, 1, 1)])
