#!/usr/bin/env python3
"""Operating a warehouse end to end: materialize summary views, keep
them fresh, answer queries from them.

Combines the two subsystems the paper's warehouse story needs:

1. the **maintainer** keeps three hand-written summary views (one per
   analyst query's grouping) fresh as call records stream in ([BLT86,
   GMS93] substrate);
2. the **rewriter** (the paper's core) answers each analyst query from
   the freshest summaries, verified against direct evaluation.

Run:  python examples/warehouse_operations.py
"""

import random
import time

from repro import Database, RewriteEngine
from repro.maintenance import MaintainedView, apply_change
from repro.workloads import telephony

WORKLOAD = [
    "SELECT Calls.Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Calls.Plan_Id",
    "SELECT Calls.Plan_Id, Month, COUNT(Charge) FROM Calls GROUP BY Calls.Plan_Id, Month",
    "SELECT Year, AVG(Charge) FROM Calls GROUP BY Year",
]

#: One summary per query grouping; COUNT(Charge) rides along so that
#: SUM rolls up and AVG is SUM / COUNT (Section 4's conditions).
SUMMARIES = [
    "CREATE VIEW Yearly (Year, Total, N) AS "
    "SELECT Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Year",
    "CREATE VIEW Plan_Month (Plan_Id, Month, N) AS "
    "SELECT Plan_Id, Month, COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month",
    "CREATE VIEW Plan_Year (Plan_Id, Year, Total, N) AS "
    "SELECT Plan_Id, Year, SUM(Charge), COUNT(Charge) FROM Calls "
    "GROUP BY Plan_Id, Year",
]


def main() -> None:
    workload_gen = telephony.generate(n_calls=8_000, seed=31)
    catalog = workload_gen.catalog

    # ------------------------------------------------------------------
    print("1. Materializing and wiring incremental maintenance")
    db = Database(catalog, workload_gen.tables)
    engine = RewriteEngine(catalog)
    maintainers = []
    for sql in SUMMARIES:
        view = engine.add_view(sql)
        maintainer = MaintainedView(view, db)
        maintainers.append(maintainer)
        print(
            f"   {view.name}: {len(maintainer.table())} rows materialized"
        )

    # ------------------------------------------------------------------
    print("\n2. Streaming 500 new call records through the maintainers")
    rng = random.Random(7)
    start = time.perf_counter()
    for i in range(500):
        call = (
            9_000_000 + i,
            rng.randrange(100),
            rng.randrange(8),
            rng.randint(1, 28),
            rng.randint(1, 12),
            rng.choice([1994, 1995]),
            rng.randint(1, 500),
        )
        # Every maintainer observes the change against the pre-change
        # state, then the shared database mutates once.
        apply_change(maintainers, "Calls", inserts=[call])
    elapsed = time.perf_counter() - start
    print(f"   maintained {len(maintainers)} views over 500 inserts "
          f"in {elapsed * 1000:.1f} ms")
    for maintainer in maintainers:
        assert maintainer.consistency_check()
    print("   consistency check against full recompute: OK")

    # ------------------------------------------------------------------
    print("\n3. Answering the workload from the fresh summaries\n")
    for sql in WORKLOAD:
        best = engine.rewrite(sql).best()
        assert best is not None
        # Serve the maintained table instead of re-materializing.
        for maintainer in maintainers:
            if maintainer.view.name in best.view_names:
                db._view_cache[maintainer.view.name] = maintainer.table()  # noqa: SLF001

        start = time.perf_counter()
        via_view = db.execute(best.query, extra_views=best.extra_views())
        t_view = time.perf_counter() - start
        start = time.perf_counter()
        direct = db.execute(sql)
        t_direct = time.perf_counter() - start
        assert direct.multiset_equal(via_view)
        print(
            f"   [{sql.strip().splitlines()[0][:60]}...]"
            if len(sql) > 60
            else f"   [{sql.strip()}]"
        )
        print(
            f"      via {', '.join(best.view_names)}: "
            f"{t_view * 1000:.2f} ms vs direct {t_direct * 1000:.2f} ms "
            f"({t_direct / t_view:,.0f}x), answers match"
        )


if __name__ == "__main__":
    main()
