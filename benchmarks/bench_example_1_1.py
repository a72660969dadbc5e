"""Experiment E1 — Example 1.1: answering Q from the monthly summary V1.

The paper's claim: "the materialized view V1 is likely to be orders of
magnitude smaller than the Calls table. Hence, evaluating Q' will be much
more efficient than evaluating Q."

We regenerate the claim as a series: evaluation time of Q (scans Calls)
versus Q' (scans materialized V1) as |Calls| grows, plus the |V1|/|Calls|
compression ratio. The *shape* to reproduce: speedup grows with |Calls|
and exceeds an order of magnitude once |Calls| >> |V1|.

Each series times both sides under one explicit ``engine=``: under
``auto`` the largest size crosses ``COLUMNAR_AUTO_THRESHOLD`` while the
smaller ones do not, and the series would compare two engines.
"""

import pytest

from repro import RewriteEngine
from repro.bench import ResultTable, speedup, time_best
from repro.workloads import telephony

SIZES = {"small": [1_000, 4_000, 16_000], "full": [10_000, 50_000, 200_000]}


@pytest.fixture(scope="module")
def mid_setup():
    wl = telephony.generate(n_calls=8_000, threshold=100_000, seed=11)
    engine = RewriteEngine(wl.catalog)
    rewriting = engine.rewrite(wl.query).best()
    assert rewriting is not None
    db = wl.database()
    db.materialize("V1")  # the warehouse maintains V1 ahead of time
    return wl, db, rewriting


@pytest.mark.parametrize("engine_mode", ["row", "columnar"])
def test_speedup_series(bench_scale, engine_mode, benchmark):
    table = ResultTable(
        f"E1: Example 1.1 original vs rewritten, {engine_mode} engine "
        "(seconds)",
        ["calls", "view_rows", "t_original", "t_rewritten", "speedup"],
    )
    observed = []
    for n_calls in SIZES[bench_scale]:
        wl = telephony.generate(
            n_calls=n_calls, threshold=100_000, seed=11
        )
        engine = RewriteEngine(wl.catalog)
        rewriting = engine.rewrite(wl.query).best()
        db = wl.database()
        view_rows = len(db.materialize("V1"))
        t_original = time_best(
            lambda: db.execute(wl.query, engine=engine_mode), repeats=2
        )
        t_rewritten = time_best(
            lambda: db.execute(
                rewriting.query,
                extra_views=rewriting.extra_views(),
                engine=engine_mode,
            ),
            repeats=2,
        )
        gain = speedup(t_original, t_rewritten)
        observed.append(gain)
        table.add(n_calls, view_rows, t_original, t_rewritten, gain)
    table.show()

    # Shape assertions: the rewriting wins, and wins more at scale.
    assert all(g and g > 1 for g in observed)
    assert observed[-1] > observed[0]

    # Anchor a stable number for pytest-benchmark at the middle size.
    wl = telephony.generate(
        n_calls=SIZES[bench_scale][1], threshold=100_000, seed=11
    )
    engine = RewriteEngine(wl.catalog)
    rewriting = engine.rewrite(wl.query).best()
    db = wl.database()
    db.materialize("V1")
    benchmark(
        lambda: db.execute(
            rewriting.query,
            extra_views=rewriting.extra_views(),
            engine=engine_mode,
        )
    )


def test_original_query_eval(mid_setup, benchmark):
    wl, db, _rewriting = mid_setup
    benchmark(lambda: db.execute(wl.query))


def test_rewritten_query_eval(mid_setup, benchmark):
    wl, db, rewriting = mid_setup
    benchmark(
        lambda: db.execute(
            rewriting.query, extra_views=rewriting.extra_views()
        )
    )


def test_answers_agree(mid_setup, benchmark):
    """The speedup is only meaningful if the answers are identical."""
    wl, db, rewriting = mid_setup

    def both():
        left = db.execute(wl.query)
        right = db.execute(
            rewriting.query, extra_views=rewriting.extra_views()
        )
        assert left.multiset_equal(right)
        return len(left)

    benchmark(both)
