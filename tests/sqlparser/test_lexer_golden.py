"""The lexer reproduces its golden: token streams and error positions.

``lexer_golden.json`` was generated with the character-at-a-time lexer
that the one-pattern lexer replaced (see ``lexer_golden.py``); every
case must come out identical except those in ``MULTILINE_STRING_CASES``.
"""

import json

from .lexer_golden import GOLDEN, lex_record, random_texts

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))

#: Cases with a string literal spanning a line before another token or
#: an error. The old lexer did not count a literal's newlines, so it put
#: everything after one on the wrong line; these are the only cases whose
#: positions moved, and nothing else about them did.
MULTILINE_STRING_CASES = {
    "random-0160",
    "random-0271",
    "random-0745",
    "random-1512",
    "random-1943",
}


def without_positions(lexed):
    if isinstance(lexed, dict):
        return lexed["error"].rsplit(" (line ", 1)[0]
    return [row[:3] for row in lexed]


def test_reproduces_golden():
    moved = set()
    for case in CASES:
        got = lex_record(case["text"])
        if got != case["lexed"]:
            moved.add(case["name"])
            assert without_positions(got) == without_positions(case["lexed"]), case
    assert moved == MULTILINE_STRING_CASES


def test_golden_covers_workloads_and_random_strings():
    names = [case["name"] for case in CASES]
    assert len(CASES) > 2000
    assert any(name.startswith("telephony-") for name in names)
    assert any(name.startswith("scenario-") for name in names)
    assert [(c["name"], c["text"]) for c in CASES[: len(random_texts())]] == (
        random_texts()
    )
