"""Inputs and records for the lexer golden (``lexer_golden.json``).

The golden holds, for every input, the token stream as
``[type, value, value type, line, column]`` rows or the error text.
It pins the lexer's observable behaviour: any rewrite of ``tokenize``
must reproduce it exactly (``test_lexer_golden.py``).

Regenerate with ``PYTHONPATH=src python tests/sqlparser/lexer_golden.py``
only when a lexer change is meant to alter a token stream, and say in
the test which cases moved and why.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.blocks.to_sql import block_to_sql, view_to_sql
from repro.errors import SQLSyntaxError
from repro.sqlparser.lexer import tokenize
from repro.workloads import random_queries, star, telephony

GOLDEN = Path(__file__).with_name("lexer_golden.json")

#: Single characters and short pieces the random strings are drawn from:
#: every lexer branch, its edges (Unicode letters, digits and numerals
#: that are not ASCII, NBSP, escapes) and keywords in mixed case.
PIECES = (
    list("abcXYZ_$019 .,()*;<>=!+-/'\"\n\t\r")
    + ["--", "¹", "é", "٣", "Ⅻ", " ", "''", '""', "1.5", ".5"]
    + ["SELECT", "from", "Where", "GROUP", "BY", "having", "AND", "as", "OR"]
)

N_RANDOM = 2000


def random_texts(seed: int = 2024, n: int = N_RANDOM) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [
        (f"random-{i:04d}", "".join(rng.choices(PIECES, k=rng.randint(1, 24))))
        for i in range(n)
    ]


def workload_texts() -> list[tuple[str, str]]:
    """Every SQL text the generators in ``repro.workloads`` produce."""
    out = [(f"star-view-{k}", v) for k, v in star.VIEW_DEFINITIONS.items()]
    out += [(f"star-query-{k}", v) for k, v in star.QUERIES.items()]
    out.append(("telephony-query", telephony.QUERY_SQL.format(threshold=1_000_000)))
    out.append(("telephony-view", telephony.VIEW_SQL))
    for seed in range(40):
        scenario = random_queries.random_scenario(seed)
        out.append((f"scenario-{seed}-query", block_to_sql(scenario.query)))
        out += [
            (f"scenario-{seed}-{view.name}", view_to_sql(view))
            for view in scenario.views
        ]
    return out


def golden_inputs() -> list[tuple[str, str]]:
    return random_texts() + workload_texts()


def lex_record(text: str):
    """The token rows for ``text``, or ``{"error": message}``."""
    try:
        tokens = tokenize(text)
    except SQLSyntaxError as exc:
        return {"error": str(exc)}
    return [
        [t.type.name, t.value, type(t.value).__name__, t.line, t.column]
        for t in tokens
    ]


def main() -> None:
    cases = [
        {"name": name, "text": text, "lexed": lex_record(text)}
        for name, text in golden_inputs()
    ]
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(
            ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
        )
        fh.write("\n]\n")


if __name__ == "__main__":
    main()
