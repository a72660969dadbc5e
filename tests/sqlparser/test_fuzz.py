"""Parser robustness: arbitrary input never escapes the ReproError
hierarchy, and valid inputs never crash downstream normalization."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, parse_query, table
from repro.errors import ReproError
from repro.sqlparser.parser import parse_script, parse_statement


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_arbitrary_text_never_crashes(text):
    try:
        parse_statement(text)
    except ReproError:
        pass  # the only acceptable failure mode


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + " ,().*<>=';-+/",
        max_size=120,
    )
)
def test_sql_shaped_text_never_crashes(text):
    try:
        parse_script(text)
    except ReproError:
        pass


TOKENS = [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AND", "AS",
    "DISTINCT", "SUM", "COUNT", "(", ")", ",", "*", "=", "<", "a", "b",
    "t", "R", "1", "2", "'x'", ".", ";",
]


@pytest.mark.parametrize("seed", range(150))
def test_token_soup_never_crashes(seed):
    """Grammar-adjacent gibberish: keyword/token sequences."""
    rng = random.Random(seed)
    text = " ".join(rng.choices(TOKENS, k=rng.randint(1, 30)))
    try:
        parse_statement(text)
    except ReproError:
        pass


@pytest.mark.parametrize("seed", range(80))
def test_valid_parse_then_normalize_never_crashes(seed):
    """Whatever parses must either normalize or raise a ReproError."""
    rng = random.Random(10_000 + seed)
    catalog = Catalog([table("R", ["a", "b"]), table("S", ["c"])])
    text = " ".join(rng.choices(TOKENS, k=rng.randint(3, 25)))
    try:
        parse_query(text, catalog)
    except ReproError:
        pass
