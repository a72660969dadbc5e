"""The production metrics layer: registry, exposition, instrumentation.

Contracts under test (see ``docs/observability.md``):

* three metric kinds with labeled families; kind and label-name
  conflicts and negative counter increments raise;
* snapshots are picklable dicts that fold into a registry
  (``MetricsRegistry.merge``) without double counting —
  counters and histograms accumulate, gauges last-write-wins;
* ``render_prometheus`` emits conformant text exposition: one
  ``# HELP``/``# TYPE`` pair per family, sorted families, cumulative
  histogram buckets ending at ``+Inf`` with exact ``_sum``/``_count``,
  trailing newline — validated by the parser in this module, which the
  CLI tests also run over real ``repro metrics``/``--metrics-out``
  output;
* instrumentation is free when off: no active registry means no
  families, no children, no observable state anywhere;
* ``timed()`` is the one shared timing helper; a declared handle as its
  target records into the active registry at exit;
* the catalogue is the code: every family the instrumentation emits is
  declared exactly once, and ``docs/observability.md`` lists exactly the
  declared families with their label names.
"""

import json
import re
import threading
from pathlib import Path

import pytest

from repro import Catalog, Database, api, parse_query, parse_view, table
from repro.cache import QueryCache
from repro.cli import main
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_SCHEMA,
    Metric,
    MetricsRegistry,
    MetricsSnapshot,
    collecting,
    counter,
    current_metrics,
    declared,
    render_prometheus,
    set_global_metrics,
    timed,
)

# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------


def family(registry, name, kind="counter", labelnames=(), buckets=None,
           help=""):
    """``name``'s family in ``registry``, through an undeclared handle."""
    return registry.family(Metric(name, kind, help, labelnames, buckets))


class TestCounters:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        family(registry, "c_total").inc()
        family(registry, "c_total").inc(4)
        assert family(registry, "c_total").value == 5

    def test_negative_increment_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            family(registry, "c_total").inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        family(registry, "x")
        with pytest.raises(ValueError):
            family(registry, "x", "gauge")
        with pytest.raises(ValueError):
            family(registry, "x", "histogram")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        family(registry, "x", labelnames=("a",))
        with pytest.raises(ValueError):
            family(registry, "x", labelnames=("b",))
        with pytest.raises(ValueError):
            family(registry, "x")

    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = family(registry, "c_total", help="help text")
        assert family(registry, "c_total") is first


class TestGauges:
    def test_set_keeps_the_latest_value(self):
        registry = MetricsRegistry()
        gauge = family(registry, "g", "gauge")
        gauge.set(10)
        gauge.set(13)
        assert gauge.value == 13


class TestHistograms:
    def test_exact_count_and_sum(self):
        registry = MetricsRegistry()
        hist = family(registry, "h_seconds", "histogram").labels()
        for value in (0.0001, 0.003, 2.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(102.0031)

    def test_bucket_placement_inclusive_upper_bound(self):
        registry = MetricsRegistry()
        hist = family(registry, "h", "histogram", buckets=(1.0, 2.0)).labels()
        hist.observe(1.0)  # on the bound -> first bucket (le is inclusive)
        hist.observe(1.5)
        hist.observe(99.0)  # overflow -> +Inf slot
        assert hist.counts == [1, 1, 1]

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            family(registry, "bad", "histogram", buckets=(2.0, 1.0)).labels()

    def test_default_latency_ladder(self):
        registry = MetricsRegistry()
        hist = family(registry, "h_seconds", "histogram").labels()
        assert hist.bounds == DEFAULT_LATENCY_BUCKETS


class TestLabels:
    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        methods = family(registry, "f_total", labelnames=("method",))
        with pytest.raises(ValueError):
            methods.labels()
        with pytest.raises(ValueError):
            methods.labels("GET", "extra")

    def test_solo_access_on_labeled_family_raises(self):
        registry = MetricsRegistry()
        methods = family(registry, "f_total", labelnames=("method",))
        with pytest.raises(ValueError):
            methods.inc()

    def test_unlabeled_family_proxies_solo_child(self):
        registry = MetricsRegistry()
        family(registry, "plain_total").inc(3)
        assert family(registry, "plain_total").labels().value == 3

    def test_non_string_values_coerced(self):
        registry = MetricsRegistry()
        codes = family(registry, "f_total", labelnames=("code",))
        codes.labels(404).inc()
        assert codes.labels("404").value == 1


class TestThreadSafety:
    def test_concurrent_increments_never_lost(self):
        registry = MetricsRegistry()
        counter = family(registry, "n_total").labels()

        def worker():
            for _ in range(5_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 20_000


# ----------------------------------------------------------------------
# Snapshots: serialize, merge, reset
# ----------------------------------------------------------------------


def _small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    family(registry, "req_total", labelnames=("outcome",), help="requests").labels(
        "ok"
    ).inc(3)
    family(registry, "size_rows", "gauge").set(42)
    family(registry, "lat_seconds", "histogram", buckets=(0.1, 1.0)).observe(
        0.05
    )
    return registry


class TestSnapshot:
    def test_as_dict_is_versioned_and_json_safe(self):
        doc = _small_registry().snapshot().as_dict()
        assert doc["schema"] == METRICS_SCHEMA
        json.dumps(doc)  # picklable and JSON-serializable

    def test_from_dict_round_trip(self):
        doc = _small_registry().snapshot().as_dict()
        snapshot = MetricsSnapshot.from_dict(json.loads(json.dumps(doc)))
        assert snapshot.counter_value("req_total", outcome="ok") == 3

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            MetricsSnapshot.from_dict({"schema": "bogus/9", "families": {}})

    def test_counter_value_absent_is_zero(self):
        snapshot = _small_registry().snapshot()
        assert snapshot.counter_value("nope_total") == 0
        assert snapshot.counter_value("req_total", outcome="error") == 0


class TestMerge:
    def test_counters_add_gauges_take_latest(self):
        parent = _small_registry()
        child = _small_registry()
        family(child, "size_rows", "gauge").set(7)
        parent.merge(child)
        snapshot = parent.snapshot()
        assert snapshot.counter_value("req_total", outcome="ok") == 6
        assert snapshot.counter_value("size_rows") == 7

    def test_histograms_add_counts_and_sums(self):
        parent = _small_registry()
        parent.merge(_small_registry().snapshot())
        hist = family(parent, "lat_seconds", "histogram").labels()
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.1)
        assert hist.counts[0] == 2

    def test_merge_accepts_plain_dicts(self):
        parent = MetricsRegistry()
        parent.merge(_small_registry().snapshot().as_dict())
        assert parent.snapshot().counter_value("req_total", outcome="ok") == 3

    def test_merge_new_label_values_appended(self):
        parent = _small_registry()
        child = MetricsRegistry()
        family(child, "req_total", labelnames=("outcome",)).labels(
            "error"
        ).inc()
        parent.merge(child)
        snapshot = parent.snapshot()
        assert snapshot.counter_value("req_total", outcome="ok") == 3
        assert snapshot.counter_value("req_total", outcome="error") == 1

    def test_kind_mismatch_raises(self):
        parent = MetricsRegistry()
        family(parent, "x")
        child = MetricsRegistry()
        family(child, "x", "gauge").set(1)
        with pytest.raises(ValueError):
            parent.merge(child)

    def test_histogram_bounds_mismatch_raises(self):
        parent = MetricsRegistry()
        family(parent, "h", "histogram", buckets=(1.0,)).observe(0.5)
        child = MetricsRegistry()
        family(child, "h", "histogram", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            parent.merge(child)


class TestReset:
    def test_reset_zeroes_but_keeps_families(self):
        registry = _small_registry()
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot.counter_value("req_total", outcome="ok") == 0
        assert snapshot.counter_value("size_rows") == 0
        hist = family(registry, "lat_seconds", "histogram").labels()
        assert hist.count == 0 and hist.sum == 0.0
        assert set(snapshot.families) == {
            "req_total", "size_rows", "lat_seconds",
        }


# ----------------------------------------------------------------------
# Prometheus text-format conformance
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|\+Inf|-Inf|NaN))$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def assert_prometheus_conformant(text: str) -> dict:
    """Parse Prometheus text exposition, asserting the format contract.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``
    so callers can make content assertions on top. This is the
    conformance gate the acceptance criteria name: the CLI tests run it
    over real ``repro metrics`` and ``--metrics-out`` output.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name = rest.split(" ", 1)[0]
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"type": None, "samples": []}
            current = name
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert parts[2] == current, "TYPE must follow its own HELP"
            assert families[current]["type"] is None, "duplicate TYPE"
            assert parts[3] in ("counter", "gauge", "histogram")
            families[current]["type"] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        sample_name = match.group("name")
        assert current is not None and (
            sample_name == current
            or (
                families[current]["type"] == "histogram"
                and sample_name
                in (current + "_bucket", current + "_sum", current + "_count")
            )
        ), f"sample {sample_name!r} outside its family block"
        labels = {}
        if match.group("labels"):
            for pair in re.split(r",(?=[a-zA-Z_])", match.group("labels")):
                assert _LABEL_RE.match(pair), f"bad label pair: {pair!r}"
                key, _, value = pair.partition("=")
                labels[key] = value[1:-1]
        families[current]["samples"].append(
            (sample_name, labels, match.group("value"))
        )
    assert list(families) == sorted(families), "families must be sorted"
    for name, family in families.items():
        assert family["type"] is not None, f"{name} missing TYPE"
        if family["type"] != "histogram":
            assert family["samples"], f"{name} has no samples"
            continue
        buckets = [s for s in family["samples"] if s[0] == name + "_bucket"]
        counts = [s for s in family["samples"] if s[0] == name + "_count"]
        assert buckets and counts, f"{name} missing buckets or count"
        series: dict = {}
        for _, labels, value in buckets:
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            series.setdefault(key, []).append((labels["le"], float(value)))
        for key, rows in series.items():
            cumulative = [count for _, count in rows]
            assert cumulative == sorted(cumulative), (
                f"{name}: bucket counts must be cumulative"
            )
            assert rows[-1][0] == "+Inf", f"{name}: last bucket must be +Inf"
            total = next(
                float(v) for _, labels, v in counts
                if tuple(sorted(labels.items())) == key
            )
            assert rows[-1][1] == total, (
                f"{name}: +Inf bucket must equal _count"
            )
    return families


class TestPrometheusRendering:
    def test_small_registry_is_conformant(self):
        registry = _small_registry()
        families = assert_prometheus_conformant(registry.render_prometheus())
        assert families["req_total"]["type"] == "counter"
        assert families["lat_seconds"]["type"] == "histogram"

    def test_registry_and_snapshot_render_identically(self):
        registry = _small_registry()
        assert registry.render_prometheus() == render_prometheus(
            registry.snapshot()
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family(registry, "esc_total", labelnames=("q",)).labels(
            'with "quotes" and \\slash\n'
        ).inc()
        text = registry.render_prometheus()
        assert '\\"quotes\\"' in text and "\\\\slash" in text and "\\n" in text
        assert_prometheus_conformant(text)

    def test_help_defaults_to_the_name(self):
        registry = MetricsRegistry()
        family(registry, "bare_total").inc()
        assert "# HELP bare_total bare_total" in registry.render_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_integer_values_render_without_exponent(self):
        registry = MetricsRegistry()
        family(registry, "n_total").inc(10_000_000)
        assert "n_total 10000000\n" in registry.render_prometheus()


# ----------------------------------------------------------------------
# Active-registry plumbing and timed()
# ----------------------------------------------------------------------


class TestActiveRegistry:
    def test_off_by_default(self):
        assert current_metrics() is None

    def test_collecting_scopes_and_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with collecting(outer):
            assert current_metrics() is outer
            with collecting(inner):
                assert current_metrics() is inner
            assert current_metrics() is outer
        assert current_metrics() is None

    def test_global_registry_restorable(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            assert previous is None
            assert current_metrics() is registry
        finally:
            set_global_metrics(previous)
        assert current_metrics() is None

    def test_thread_scope_shadows_global(self):
        global_reg, local_reg = MetricsRegistry(), MetricsRegistry()
        previous = set_global_metrics(global_reg)
        try:
            with collecting(local_reg):
                assert current_metrics() is local_reg
            assert current_metrics() is global_reg
        finally:
            set_global_metrics(previous)

    def test_thread_scope_is_per_thread(self):
        registry = MetricsRegistry()
        seen = []

        def probe():
            seen.append(current_metrics())

        with collecting(registry):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_handle_does_not_keep_its_last_registry_alive(self):
        import gc
        import weakref

        handle = Metric("op_total", "counter", "Ops.", ("kind",))
        registry = MetricsRegistry()
        with collecting(registry):
            handle.labels("a").inc()
            handle.labels("a").inc()
        assert family(registry, "op_total", labelnames=("kind",)).labels(
            "a"
        ).value == 2
        gone = weakref.ref(registry)
        del registry
        gc.collect()
        assert gone() is None
        with collecting(MetricsRegistry()) as fresh:
            handle.labels("a").inc()
        assert fresh.snapshot().counter_value("op_total", kind="a") == 1


class TestTimed:
    def test_measures_elapsed_seconds(self):
        with timed() as t:
            pass
        assert t.seconds >= 0.0

    def test_declared_target_records_into_active_registry(self):
        registry = MetricsRegistry()
        with collecting(registry):
            with timed(Metric("op_seconds", "histogram", "Op time.", ())):
                pass
        assert family(registry, "op_seconds", "histogram").labels().count == 1

    def test_declared_target_free_when_off(self):
        with timed(Metric("op_seconds", "histogram", "Op time.", ())) as t:
            pass
        assert t.seconds >= 0.0  # and nothing raised, nothing recorded

    def test_object_target_observed_directly(self):
        registry = MetricsRegistry()
        hist = family(registry, "op_seconds", "histogram")
        with timed(hist):
            pass
        assert hist.labels().count == 1


# ----------------------------------------------------------------------
# Instrumentation: planner, cache, engines, api
# ----------------------------------------------------------------------


@pytest.fixture
def telephony():
    catalog = Catalog(
        [
            table(
                "Calls",
                ["Call_Id", "Plan_Id", "Month", "Year", "Charge"],
                key=["Call_Id"],
            )
        ]
    )
    catalog.add_view(
        parse_view(
            "CREATE VIEW Monthly (Plan_Id, Month, Year, Revenue) AS "
            "SELECT Plan_Id, Month, Year, SUM(Charge) FROM Calls "
            "GROUP BY Plan_Id, Month, Year",
            catalog,
        )
    )
    return catalog


QUERY = (
    "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 "
    "GROUP BY Plan_Id"
)


class TestPlannerInstrumentation:
    def test_search_counters_recorded(self, telephony):
        registry = MetricsRegistry()
        with collecting(registry):
            result = api.rewrite(QUERY, catalog=telephony)
        assert result.rewritings
        snapshot = registry.snapshot()
        assert snapshot.counter_value("repro_planner_searches_total") == 1
        assert snapshot.counter_value("repro_planner_nodes_expanded_total") >= 1
        assert (
            snapshot.counter_value(
                "repro_planner_candidates_total", outcome="kept"
            )
            >= 1
        )
        assert (
            snapshot.counter_value(
                "repro_planner_mappings_total", kind="one_to_one"
            )
            >= 1
        )

    def test_memo_hits_recorded_on_requery(self, telephony):
        from repro.core.planner import RewritePlanner

        planner = RewritePlanner(
            list(telephony.views.values()), telephony
        )
        query = parse_query(QUERY, telephony)
        registry = MetricsRegistry()
        with collecting(registry):
            planner.all_rewritings(query)
            planner.all_rewritings(query)
        snapshot = registry.snapshot()
        assert (
            snapshot.counter_value(
                "repro_planner_memo_total",
                family="substitution",
                outcome="hit",
            )
            >= 1
        )

    def test_memo_counts_per_family_for_a_fixed_sequence(self, telephony):
        """``repro_planner_memo_total`` per family label on a cold
        process: the counts every memo implementation must reproduce
        (same keys, same caps, same hits)."""
        from repro.core.planner import RewritePlanner
        from repro.memo import clear_shared

        other = QUERY.replace("Plan_Id", "Month")
        clear_shared()
        planner = RewritePlanner(
            list(telephony.views.values()), telephony
        )
        registry = MetricsRegistry()
        with collecting(registry):
            for sql in (QUERY, other, QUERY):
                planner.all_rewritings(parse_query(sql, telephony))
        snapshot = registry.snapshot()
        counts = {
            family: tuple(
                snapshot.counter_value(
                    "repro_planner_memo_total",
                    family=family,
                    outcome=outcome,
                )
                for outcome in ("hit", "miss")
            )
            for family in (
                "closure", "canonical_key", "residual", "substitution"
            )
        }
        assert counts == {
            "closure": (5, 2),
            "canonical_key": (0, 0),
            "residual": (1, 1),
            "substitution": (1, 2),
        }

    def test_strategy_family_lookups_are_recorded(self, telephony):
        from repro import RewriteEngine

        engine = RewriteEngine(telephony)  # one planner for both calls
        registry = MetricsRegistry()
        with collecting(registry):
            engine.rewrite(QUERY, strategy="cohen_nutt")
            engine.rewrite(QUERY, strategy="cohen_nutt")
        snapshot = registry.snapshot()
        for outcome in ("miss", "hit"):
            assert snapshot.counter_value(
                "repro_planner_memo_total",
                family="cohen_nutt",
                outcome=outcome,
            ) == 1

    def test_nothing_recorded_when_off(self, telephony):
        registry = MetricsRegistry()
        result = api.rewrite(QUERY, catalog=telephony)
        assert result.rewritings
        assert registry.snapshot().families == {}


def _calls_catalog():
    return Catalog(
        [
            table(
                "Calls",
                ["Call_Id", "Plan_Id", "Month", "Year", "Charge"],
                key=["Call_Id"],
            )
        ]
    )


class TestCacheInstrumentation:
    def test_lookups_remember_and_gauges(self):
        cache = QueryCache(_calls_catalog())
        registry = MetricsRegistry()
        with collecting(registry):
            cache.remember(
                "SELECT Plan_Id, Year, SUM(Charge) FROM Calls "
                "GROUP BY Plan_Id, Year",
                [(1, 1995, 10), (2, 1995, 20)],
            )
            hit = cache.try_answer(
                "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id"
            )
            miss = cache.try_answer("SELECT Call_Id, Charge FROM Calls")
        assert hit is not None and miss is None
        snapshot = registry.snapshot()
        assert snapshot.counter_value("repro_cache_remember_total") == 1
        assert (
            snapshot.counter_value("repro_cache_lookups_total", outcome="hit")
            == 1
        )
        assert (
            snapshot.counter_value("repro_cache_lookups_total", outcome="miss")
            == 1
        )
        assert snapshot.counter_value("repro_cache_size_rows") == 2
        assert snapshot.counter_value("repro_cache_entries") == 1

    def test_evictions_counted(self):
        cache = QueryCache(_calls_catalog(), capacity_rows=3)
        registry = MetricsRegistry()
        with collecting(registry):
            cache.remember(
                "SELECT Plan_Id, Year, SUM(Charge) FROM Calls "
                "GROUP BY Plan_Id, Year",
                [(1, 1995, 10), (2, 1995, 20), (3, 1995, 5)],
            )
            cache.remember(
                "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id",
                [(1, 10), (2, 20)],
            )
        assert registry.snapshot().counter_value(
            "repro_cache_evictions_total"
        ) == cache.stats.evictions > 0


class TestEngineInstrumentation:
    def _database(self):
        catalog = Catalog([table("T", ["A", "B"], key=["A"])])
        rows = [(i, i % 3) for i in range(30)]
        return Database(catalog, {"T": rows})

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_rows_scanned_and_grouped(self, engine):
        db = self._database()
        registry = MetricsRegistry()
        with collecting(registry):
            db.execute(
                "SELECT B, COUNT(A) FROM T GROUP BY B", engine=engine
            )
        snapshot = registry.snapshot()
        assert (
            snapshot.counter_value(
                "repro_engine_rows_scanned_total", engine=engine
            )
            == 30
        )
        assert (
            snapshot.counter_value(
                "repro_engine_rows_grouped_total", engine=engine
            )
            == 30
        )
        assert (
            snapshot.counter_value("repro_engine_groups_total", engine=engine)
            == 3
        )


class TestApiFacade:
    def test_collect_metrics_attaches_snapshot(self, telephony):
        result = api.rewrite(QUERY, catalog=telephony, collect_metrics=True)
        assert result.metrics is not None
        snapshot = MetricsSnapshot.from_dict(result.metrics)
        assert snapshot.counter_value("repro_planner_searches_total") == 1

    def test_no_snapshot_by_default(self, telephony):
        assert api.rewrite(QUERY, catalog=telephony).metrics is None


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

CLI_SCHEMA = """
CREATE TABLE Calls (
  Call_Id INT PRIMARY KEY,
  Plan_Id INT, Month INT, Year INT, Charge INT
);
CREATE VIEW Monthly (Plan_Id, Month, Year, Revenue, N) AS
SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge)
FROM Calls
GROUP BY Plan_Id, Month, Year;
"""


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(CLI_SCHEMA)
    return str(path)


class TestCliMetricsCommand:
    def test_emits_conformant_prometheus(self, schema_file, capsys):
        code = main(
            ["metrics", "--schema", schema_file, "--query", QUERY]
        )
        out = capsys.readouterr().out
        assert code == 0
        families = assert_prometheus_conformant(out)
        assert "repro_planner_searches_total" in families

    def test_metrics_out_flag_writes_file(self, schema_file, tmp_path, capsys):
        out_file = tmp_path / "metrics.prom"
        code = main(
            [
                "rewrite",
                "--schema",
                schema_file,
                "--query",
                QUERY,
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        families = assert_prometheus_conformant(out_file.read_text())
        assert "repro_planner_searches_total" in families

    def test_metrics_out_written_even_on_failed_rewrite(
        self, schema_file, tmp_path, capsys
    ):
        out_file = tmp_path / "metrics.prom"
        code = main(
            [
                "rewrite",
                "--schema",
                schema_file,
                "--query",
                "SELECT Call_Id, Charge FROM Calls",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 1  # no usable view
        assert_prometheus_conformant(out_file.read_text())

    def test_fuzz_metrics_out_covers_oracle_and_fuzzer(
        self, tmp_path, capsys
    ):
        out_file = tmp_path / "metrics.prom"
        code = main(
            [
                "fuzz",
                "--max-scenarios",
                "2",
                "--seed",
                "7",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        families = assert_prometheus_conformant(out_file.read_text())
        assert "repro_fuzz_scenarios_total" in families
        assert "repro_oracle_scenarios_total" in families


# ----------------------------------------------------------------------
# The catalogue is the code
# ----------------------------------------------------------------------

_DOC_ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \| ([^|]+) \|")


class TestCatalogue:
    def _rendered(self, schema_file, tmp_path, capsys, telephony):
        """Drive one of each instrumented surface; the names rendered."""
        from repro.blocks.to_sql import block_to_sql
        from repro.service.requests import RewriteRequest
        from repro.serving import ServingClient
        from repro.workloads.random_queries import random_scenario
        from tests.serving.conftest import running_daemon

        rendered: set = set()

        def take(source):
            text = render_prometheus(source)
            rendered.update(assert_prometheus_conformant(text))

        take(MetricsSnapshot.from_dict(
            api.rewrite(QUERY, catalog=telephony, collect_metrics=True).metrics
        ))
        batch = MetricsRegistry()
        with collecting(batch):
            api.rewrite_batch(
                [RewriteRequest(query=QUERY, catalog=telephony)] * 3,
                mode="serial",
            )
        take(batch)

        data = tmp_path / "data"
        data.mkdir()
        (data / "Calls.csv").write_text(
            "Call_Id,Plan_Id,Month,Year,Charge\n"
            + "".join(f"{i},{i % 3},{i % 12},1995,{i}\n" for i in range(30))
        )
        for engine in ("row", "columnar"):
            query = MetricsRegistry()
            with collecting(query):
                assert main(
                    ["query", "--schema", schema_file, "--data", str(data),
                     "--engine", engine, "--query", QUERY, "--use-views"]
                ) == 0
            take(query)

        out_file = tmp_path / "fuzz.prom"
        assert main(
            ["fuzz", "--max-scenarios", "2", "--seed", "7",
             "--out-dir", str(tmp_path / "fuzz"), "--metrics-out", str(out_file)]
        ) == 0
        rendered.update(assert_prometheus_conformant(out_file.read_text()))

        scenario = random_scenario(7)
        daemon_reg = MetricsRegistry()
        with running_daemon(scenario.catalog, metrics=daemon_reg) as daemon:
            with ServingClient.connect(("127.0.0.1", daemon.tcp_port)) as client:
                client.rewrite(block_to_sql(scenario.query))
                take(MetricsSnapshot.from_dict(
                    client.metrics()["result"]["metrics"]
                ))
                client.shutdown()
        capsys.readouterr()
        return rendered

    def test_declarations_are_the_catalogue(
        self, schema_file, tmp_path, capsys, telephony
    ):
        # Every module that declares a family.
        import repro.cli  # noqa: F401
        import repro.engine.columnar  # noqa: F401
        import repro.federation  # noqa: F401
        import repro.fuzz.runner  # noqa: F401
        import repro.serving  # noqa: F401

        handles = declared()
        names = [m.name for m in handles]
        assert len(names) == len(set(names)), "a family is declared twice"
        with pytest.raises(ValueError):
            counter(names[0], "declared again")

        rendered = self._rendered(schema_file, tmp_path, capsys, telephony)
        areas = {name.split("_")[1] for name in rendered}
        assert areas >= {
            "planner", "service", "engine", "query", "fuzz", "oracle", "serving",
        }, f"a surface rendered nothing: {sorted(areas)}"
        undeclared = rendered - set(names)
        assert not undeclared, f"rendered but never declared: {undeclared}"

        doc = Path(__file__).parents[1] / "docs" / "observability.md"
        documented = {}
        for line in doc.read_text().splitlines():
            match = _DOC_ROW.match(line)
            if match:
                labels = match.group(3).strip()
                documented[match.group(1)] = (
                    match.group(2),
                    () if labels == "—" else tuple(
                        part.strip() for part in labels.split(",")
                    ),
                )
        assert documented == {m.name: (m.kind, m.labelnames) for m in handles}
