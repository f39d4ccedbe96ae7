"""Answer equivalence used for dataset filtering, scoring and rewards.

Three comparison families, tried in a fixed cascade: option letters
(both sides reduce to a single A-E letter once non-alphanumerics are
dropped), numbers (relative tolerance 1e-6), and normalized free text.
The first family that claims both sides decides.
"""
from __future__ import annotations

import math
import re
import string

OPTION_LETTERS = "ABCDE"
RELATIVE_TOLERANCE = 1e-6

_NON_ALNUM_RE = re.compile(r"[^0-9A-Za-z]+")


def extract_option_letter(text: str) -> str | None:
    """Reduce text like "(b)." to its option letter, or None."""
    bare = _NON_ALNUM_RE.sub("", text)
    if len(bare) == 1 and bare.upper() in OPTION_LETTERS:
        return bare.upper()
    return None


def parse_number(text: str) -> float | None:
    """Parse a numeric answer, tolerating thousands separators."""
    bare = text.strip().replace(",", "")
    if not bare:
        return None
    try:
        value = float(bare)
    except ValueError:
        return None
    if math.isnan(value) or math.isinf(value):
        return None
    return value


def normalize_freeform(text: str) -> str:
    """Lowercase, collapse whitespace, strip terminal punctuation."""
    collapsed = " ".join(text.split()).lower()
    return collapsed.rstrip(string.punctuation + " ")


def numbers_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)


def answers_match(candidate: str, label: str) -> bool:
    """Decide whether a model answer agrees with the gold label."""
    c, l = extract_option_letter(candidate), extract_option_letter(label)
    if c is not None and l is not None:
        return c == l
    cn, ln = parse_number(candidate), parse_number(label)
    if cn is not None and ln is not None:
        return numbers_close(cn, ln)
    free = normalize_freeform(candidate)
    return bool(free) and free == normalize_freeform(label)
