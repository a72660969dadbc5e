"""CLI behaviour (driven through ``main(argv)``, no subprocesses)."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main

SCHEMA = """
CREATE TABLE Plans (Plan_Id INT PRIMARY KEY, Plan_Name TEXT);
CREATE TABLE Calls (
  Call_Id INT PRIMARY KEY,
  Plan_Id INT, Month INT, Year INT, Charge INT
);
CREATE VIEW Monthly (Plan_Id, Month, Year, Revenue, N) AS
SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge)
FROM Calls
GROUP BY Plan_Id, Month, Year;
"""

QUERY = (
    "SELECT Calls.Plan_Id, SUM(Charge) FROM Calls "
    "WHERE Year = 1995 GROUP BY Calls.Plan_Id"
)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(SCHEMA)
    return str(path)


class TestRewrite:
    def test_success(self, schema_file, capsys):
        code = main(["rewrite", "--schema", schema_file, "--query", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "Monthly" in out and "rewriting 1" in out

    def test_query_from_script(self, tmp_path, capsys):
        path = tmp_path / "schema.sql"
        path.write_text(SCHEMA + QUERY + ";")
        code = main(["rewrite", "--schema", str(path)])
        assert code == 0
        assert "Monthly" in capsys.readouterr().out

    def test_no_view_usable(self, schema_file, capsys):
        code = main(
            [
                "rewrite",
                "--schema",
                schema_file,
                "--query",
                "SELECT Call_Id, Charge FROM Calls",
            ]
        )
        assert code == 1
        assert "no usable view" in capsys.readouterr().out

    def test_failure_with_explain(self, schema_file, capsys):
        code = main(
            [
                "rewrite",
                "--schema",
                schema_file,
                "--explain",
                "--query",
                "SELECT Call_Id, Charge FROM Calls",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "not usable" in out

    def test_missing_query(self, schema_file, capsys):
        code = main(["rewrite", "--schema", schema_file])
        assert code == 2
        assert "no query" in capsys.readouterr().err

    def test_missing_schema_file(self, capsys):
        code = main(
            ["rewrite", "--schema", "/nonexistent.sql", "--query", QUERY]
        )
        assert code == 2

    def test_bad_sql_reported(self, schema_file, capsys):
        code = main(
            ["rewrite", "--schema", schema_file, "--query", "SELECT FROM"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExplain:
    def test_reports_conditions(self, schema_file, capsys):
        code = main(
            [
                "explain",
                "--schema",
                schema_file,
                "--query",
                QUERY,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "USABLE" in out

    def test_restrict_to_view(self, schema_file, capsys):
        code = main(
            [
                "explain",
                "--schema",
                schema_file,
                "--view",
                "Monthly",
                "--query",
                QUERY,
            ]
        )
        assert code == 0
        assert "Monthly" in capsys.readouterr().out


    def test_example_5_1_is_usable_through_its_key(self, tmp_path, capsys):
        """The explainer gets the catalog, so the Section 5.2 many-to-1
        rewriting `repro rewrite` finds is diagnosed, not just hinted."""
        path = tmp_path / "ex51.sql"
        path.write_text(
            "CREATE TABLE R1 (A INT PRIMARY KEY, B INT, C INT);\n"
            "CREATE VIEW V1 (A2, A3) AS "
            "SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.C;\n"
        )
        argv = ["--schema", str(path), "--query", "SELECT A FROM R1 WHERE B = C"]
        assert main(["explain"] + argv) == 0
        out = capsys.readouterr().out
        assert "view V1: USABLE" in out
        assert "[PASS] 5.2 keys" in out
        assert main(["rewrite"] + argv) == 0
        assert "V1" in capsys.readouterr().out


class TestCheck:
    def test_equivalent(self, schema_file, capsys):
        code = main(
            [
                "check",
                "--schema",
                schema_file,
                "--left",
                "SELECT Plan_Id FROM Plans",
                "--right",
                "SELECT DISTINCT Plan_Id FROM Plans",
                "--trials",
                "10",
            ]
        )
        assert code == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, schema_file, capsys):
        code = main(
            [
                "check",
                "--schema",
                schema_file,
                "--left",
                "SELECT Month FROM Calls",
                "--right",
                "SELECT DISTINCT Month FROM Calls",
                "--trials",
                "30",
            ]
        )
        assert code == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestFuzz:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--max-scenarios",
                "40",
                "--seed",
                "7",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "0 failures" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_injected_bug_caught_and_replayable(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "fuzz",
                "--inject-bug",
                "min-as-max",
                "--max-scenarios",
                "400",
                "--max-failures",
                "1",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 1
        repros = sorted(out_dir.glob("*.json"))
        assert len(repros) == 1
        capsys.readouterr()

        # The repro passes on the healthy engine...
        assert main(["fuzz", "--replay", str(repros[0])]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        # ...and still fails with the same bug injected at replay time.
        assert (
            main(
                [
                    "fuzz",
                    "--replay",
                    str(repros[0]),
                    "--inject-bug",
                    "min-as-max",
                ]
            )
            == 1
        )
        assert "MISMATCH" in capsys.readouterr().out

    def test_replay_refuses_the_removed_both_strategy(
        self, tmp_path, capsys
    ):
        from repro.fuzz.generate import fuzz_scenario
        from repro.fuzz.serialize import scenario_to_json

        path = tmp_path / "repro.json"
        doc = scenario_to_json(fuzz_scenario(0), strategy="both")
        path.write_text(json.dumps(doc))
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "unknown strategy 'both'" in capsys.readouterr().err

    def test_json_stats_document(self, tmp_path, capsys):
        import json as jsonlib

        code = main(
            [
                "fuzz",
                "--max-scenarios",
                "25",
                "--seed",
                "3",
                "--json",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        doc = jsonlib.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-api/1"
        assert doc["kind"] == "fuzz-stats"
        assert doc["ok"] is True
        assert doc["result"]["base_seed"] == 3
        assert doc["result"]["scenarios"] == 25
        assert doc["result"]["failures"] == 0


class TestBatchLines:
    """`repro batch` reads lines with the daemon's own parser."""

    def run(self, schema_file, tmp_path, capsys, *lines):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            "".join(
                (l if isinstance(l, str) else json.dumps(l)) + "\n"
                for l in lines
            )
        )
        code = main(["batch", "--schema", schema_file, str(path)])
        captured = capsys.readouterr()
        return code, captured, str(path)

    def test_non_numeric_limit_refuses_the_file_without_traceback(
        self, schema_file, tmp_path, capsys
    ):
        code, captured, path = self.run(
            schema_file,
            tmp_path,
            capsys,
            {"query": QUERY},
            {"query": QUERY, "max_steps": "3"},
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: line 2: 'max_steps' must be an integer\n"
        )
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "line, message",
        [
            ({"query": QUERY, "deadline_ms": "50"}, "'deadline_ms' must be"),
            ("{not json", "line 1: not valid JSON"),
            ("[1, 2]", "line 1: expected a JSON object"),
            ({"id": "x"}, "line 1: unknown op"),
            ({"query": QUERY, "strategy": "nope"}, "line 1: unknown strat"),
            ({"query": QUERY, "views": ["Nope"]}, "line 1: "),
        ],
    )
    def test_bad_lines_refuse_with_file_and_line(
        self, schema_file, tmp_path, capsys, line, message
    ):
        code, captured, path = self.run(schema_file, tmp_path, capsys, line)
        assert code == 2
        assert captured.err.startswith(f"error: {path}: ")
        assert message in captured.err

    def test_wire_fields_are_accepted(self, schema_file, tmp_path, capsys):
        import json

        code, captured, _ = self.run(
            schema_file,
            tmp_path,
            capsys,
            "# a comment, then a bare string, then the full wire shape",
            json.dumps(QUERY),
            {
                "op": "rewrite",
                "sql": QUERY,
                "id": "wired",
                "views": ["Monthly"],
                "strategy": "cohen_nutt",
                "collect_metrics": True,
                "max_steps": 2,
            },
        )
        assert code == 0
        first, second = map(json.loads, captured.out.splitlines())
        assert first["id"] == "line-2" and second["id"] == "wired"
        assert first["result"]["rewritings"]
        assert second["result"]["metrics"] is not None


class TestParser:
    """The parser built from the flag and command tables."""

    GOLDEN = Path(__file__).parent / "goldens" / "cli_parser_spec.json"

    @staticmethod
    def spec(parser) -> dict:
        """Per subcommand, every option's argparse contract."""
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: [
                {
                    "option_strings": list(a.option_strings),
                    "dest": a.dest,
                    "default": repr(a.default),
                    "type": getattr(a.type, "__name__", None),
                    "choices": None if a.choices is None else list(a.choices),
                    "required": a.required,
                    "nargs": a.nargs,
                    "action": type(a).__name__,
                }
                for a in p._actions
            ]
            for name, p in sub.choices.items()
        }

    def test_matches_the_golden_but_for_the_intended_changes(self):
        """The golden is the hand-written parser the tables replaced; the
        edits below are the only changes made on purpose since."""
        golden = json.loads(self.GOLDEN.read_text())
        # The view advisor and its subcommand were removed.
        del golden["advise"]
        for command in ("metrics", "rewrite-sql", "serve-sql"):
            golden[command] = [
                o for o in golden[command] if o["dest"] != "trace"
            ]
        # The daemon serves from one process: no --workers.
        golden["serve"] = [
            o for o in golden["serve"] if o["dest"] != "workers"
        ]
        for command, dest, old, new in [
            ("batch", "workers", "int", "non_negative_int"),
            ("serve", "memo_capacity", "int", "non_negative_int"),
            ("serve", "queue_limit", "int", "non_negative_int"),
            ("serve", "port", "int", "port_number"),
            ("serve", "tenant", None, "tenant_quota"),
            ("check", "trials", "int", "positive_int"),
            ("query", "limit", "int", "non_negative_int"),
        ]:
            (option,) = [o for o in golden[command] if o["dest"] == dest]
            assert option["type"] == old
            option["type"] = new
        # cmd_fuzz checks the bug name, so the parser needs no repro.fuzz.
        (option,) = [o for o in golden["fuzz"] if o["dest"] == "inject_bug"]
        assert option["choices"] is not None
        option["choices"] = None
        # The "both" strategy, an alias of cohen_nutt, was removed.
        for command in ("rewrite", "batch", "fuzz"):
            (option,) = [
                o for o in golden[command] if o["dest"] == "strategy"
            ]
            assert option["choices"] == ["c1c4", "cohen_nutt", "both"]
            option["choices"] = ["c1c4", "cohen_nutt"]
        assert self.spec(build_parser()) == golden

    def test_docstring_lists_the_command_table(self):
        doc = cli.__doc__
        headings = re.findall(r"^``([a-z-]+)``$", doc, re.M)
        assert headings == list(cli.COMMANDS)
        sentence = re.search(
            r"^(.*) accept\n``--metrics-out FILE``", doc, re.M
        )
        assert sentence is not None, "the --metrics-out list is gone"
        assert re.findall(r"``([a-z-]+)``", sentence[1]) == [
            name for name, (_f, _h, keys) in cli.COMMANDS.items()
            if "metrics-out" in keys.split()
        ]

    @pytest.mark.parametrize(
        "command", ["metrics", "rewrite-sql", "serve-sql"]
    )
    def test_trace_is_refused_where_nothing_reads_it(
        self, schema_file, command, capsys
    ):
        argv = [command, "--schema", schema_file, "--trace"]
        if command == "rewrite-sql":
            argv += ["--sql", QUERY]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "requests.jsonl", "--mode", "thread", "--workers", "-1"],
            ["serve", "--memo-capacity", "-5"],
            ["query", "--data", ".", "--query", QUERY, "--limit", "-1"],
        ],
    )
    def test_negative_counts_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + ["--schema", "s.sql"])
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--port", "-1"], "argument --port: must be in 0..65535"),
            (["--port", "70000"], "argument --port: must be in 0..65535"),
            (["--queue-limit", "-3"], "argument --queue-limit: must be >= 0"),
            (["--tenant", "x=-1"], "argument --tenant: 'x=-1': must be >= 0"),
            (["--tenant", "x=2:-5"], "DEADLINE_MS must be >= 0"),
            (["--workers", "1"], "unrecognized arguments: --workers 1"),
        ],
    )
    def test_serve_refuses_values_that_break_it(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--schema", "s.sql", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rewrite", "--query", QUERY, "--strategy", "both"],
             "argument --strategy: invalid choice: 'both'"),
            (["batch", "requests.jsonl", "--strategy", "both"],
             "argument --strategy: invalid choice: 'both'"),
            (["check", "--left", QUERY, "--right", QUERY, "--trials", "0"],
             "argument --trials: must be >= 1, got 0"),
            (["check", "--left", QUERY, "--right", QUERY, "--trials", "-3"],
             "argument --trials: must be >= 1, got -3"),
        ],
    )
    def test_values_with_no_meaning_are_refused(self, argv, message, capsys):
        """A check over zero databases is no verdict, and ``both`` is
        not a strategy."""
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--schema", "s.sql"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_tenant_flags_parse_into_quotas(self):
        from repro.serving import TenantQuota

        args = build_parser().parse_args(
            ["serve", "--schema", "s.sql",
             "--tenant", "dash=8:250", "--tenant", " batch = 0 "]
        )
        assert args.tenant == [
            ("dash", TenantQuota(max_inflight=8, deadline_ms_cap=250.0)),
            ("batch", TenantQuota(max_inflight=0)),
        ]

    def test_unknown_bug_name_is_a_usage_error(self, capsys):
        from repro.fuzz import BUG_NAMES

        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--inject-bug", "no-such-bug"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro fuzz: error: argument --inject-bug: invalid choice: "
            "'no-such-bug' (choose from "
            + ", ".join(repr(name) for name in BUG_NAMES)
            + ")"
        )

    def test_building_the_parser_does_not_import_fuzz(self):
        import os
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print('repro.fuzz' in sys.modules)"
        )
        src = str(Path(cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "False"


class TestServe:
    def test_the_ready_line_holds_the_addresses_and_the_queue_limit(
        self, schema_file, capsys, monkeypatch
    ):
        from repro.serving import RewriteDaemon

        serve_forever = RewriteDaemon.serve_forever

        async def stop_at_once(daemon):
            daemon.stop()
            await serve_forever(daemon)

        monkeypatch.setattr(RewriteDaemon, "serve_forever", stop_at_once)
        assert main(["serve", "--schema", schema_file, "--port", "0"]) == 0
        ready = json.loads(capsys.readouterr().out.splitlines()[0])
        assert ready["kind"] == "serve-ready"
        assert set(ready["result"]) == {"addresses", "queue_limit"}
        ((kind, host, port),) = ready["result"]["addresses"]
        assert (kind, host) == ("tcp", "127.0.0.1") and port > 0
        assert ready["result"]["queue_limit"] == 64
