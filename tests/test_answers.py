from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphreason.answers import (
    answers_match,
    extract_option_letter,
    normalize_freeform,
    parse_number,
)

ORACLE = json.loads((Path(__file__).parent / "fixtures" / "answer_pairs.json").read_text())


@pytest.mark.parametrize(
    "candidate,label,expected",
    [(row["candidate"], row["label"], row["match"]) for row in ORACLE["pairs"]],
)
def test_auto_mode_against_frozen_oracle(candidate, label, expected):
    assert answers_match(candidate, label) is expected


def test_oracle_table_has_fifty_pairs():
    assert len(ORACLE["pairs"]) == 50


class TestModes:
    """Each family of the cascade decides only when it claims both sides."""

    def test_mcq_requires_both_sides_to_extract(self):
        assert answers_match("B", "b")
        assert not answers_match("the second option", "B")
        assert not answers_match("B", "the second option")

    def test_numeric_requires_both_sides_to_parse(self):
        assert answers_match("4.0", "4")
        assert not answers_match("four", "4")

    def test_freeform_exact_after_normalization(self):
        assert answers_match("Harry  Potter movie.", "harry potter movie")
        assert not answers_match("B", "4")


class TestHelpers:
    @pytest.mark.parametrize(
        "text,letter",
        [("(B)", "B"), ("b.", "B"), ("**C**", "C"), ("e", "E"), ("F", None),
         ("BB", None), ("4", None), ("Answer: B", None)],
    )
    def test_extract_option_letter(self, text, letter):
        assert extract_option_letter(text) == letter

    @pytest.mark.parametrize(
        "text,value",
        [("4", 4.0), (" -3.5 ", -3.5), ("1,000", 1000.0), ("1e3", 1000.0),
         ("4.", 4.0), ("nan", None), ("inf", None), ("", None), ("abc", None)],
    )
    def test_parse_number(self, text, value):
        assert parse_number(text) == value

    def test_normalize_freeform_strips_terminal_punctuation_only(self):
        assert normalize_freeform("Yes!!") == "yes"
        assert normalize_freeform("(b)") == "(b"
        assert normalize_freeform("a  b\tc") == "a b c"


@given(st.text(max_size=40))
def test_match_is_reflexive_for_normalizable_text(text):
    if normalize_freeform(text):
        assert answers_match(text, text)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_numeric_reflexive(x):
    s = repr(float(x))
    assert answers_match(s, s)


@given(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"))
def test_letter_match_is_exact(a, b):
    assert answers_match(f"({a.lower()})", b) == (a == b)
