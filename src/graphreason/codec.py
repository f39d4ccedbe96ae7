"""Parsing and rendering of the structured reasoning template.

The wire format a model is asked to emit is a reasoning block holding
one dependency per step line, followed by an answer block::

    <reasoning>
    <step> parent text → child text </step>
    </reasoning>
    <answer> final answer </answer>

Both the unicode arrow and ASCII ``->`` are accepted on input; rendering
always emits the unicode arrow. Strict parsing demands exactly this
shape with nothing but whitespace around the blocks. Lenient parsing
accepts three things more, and repairs nothing else:

- prose before ``<reasoning>`` and after ``</answer>``;
- tags whose ASCII letters differ only in case (``<Reasoning>``,
  ``</STEP>``); non-ASCII look-alikes such as ``ſ`` or the Kelvin sign
  never match a tag letter;
- duplicated steps, which collapse into one edge with a logged warning.

In both modes the answer ends at the first ``</answer>`` matched
case-insensitively; strict parsing refuses the document with
``missing-answer-block`` when that tag is not written exactly
``</answer>``.

:func:`parse` is the one entry point. One precompiled pattern per mode
accepts a well-formed document whole and captures its steps and answer;
a second splits every step body on its one arrow, and each distinct
side is normalized once per document. This pattern path parses and
checks every document it accepts: it raises ``duplicate-step`` (strict)
and ``cycle-in-steps``, the graph-level rules, and the checked
``ReasoningGraph`` constructor builds the graph. A document the pattern
declines, or whose steps break a rule it does not check (a stray arrow
or ``>``, an empty endpoint or answer), goes to a tag-by-tag walk over
the original text, which only names the first error of structure, of a
step or of the answer. So every error names the first rule the document
breaks, each offset indexes the text as given, and both paths cost time
linear in the document.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

from .graph import InvalidGraphError, ReasoningGraph, normalize_text

log = logging.getLogger(__name__)

ARROW = "→"
_ARROW_TOKENS = (ARROW, "->")

STRICT = "strict"
LENIENT = "lenient"

# ParseError kinds
MISSING_REASONING_BLOCK = "missing-reasoning-block"
MISSING_ANSWER_BLOCK = "missing-answer-block"
MALFORMED_STEP = "malformed-step"
EMPTY_ENDPOINT = "empty-endpoint"
DUPLICATE_STEP = "duplicate-step"
CYCLE_IN_STEPS = "cycle-in-steps"
TRAILING_GARBAGE = "trailing-garbage"

_REASONING_OPEN = "<reasoning>"
_REASONING_CLOSE = "</reasoning>"
_STEP_OPEN = "<step>"
_STEP_CLOSE = "</step>"
_ANSWER_OPEN = "<answer>"
_ANSWER_CLOSE = "</answer>"

_ANSWER_TAG_RE = re.compile(r"<answer>(.*?)</answer>", re.IGNORECASE | re.DOTALL | re.ASCII)

# Each tag's pattern in each mode, matched on the original text: strict
# matches the tag exactly, lenient folds the case of its ASCII letters. ASCII
# folding keeps each match the tag's own length and stops "ſ" matching "s"
# and "ı" or "İ" matching "i".
_TAGS = {
    ci: {
        tag: re.compile(re.escape(tag), re.IGNORECASE | re.ASCII if ci else 0)
        for tag in (
            _REASONING_OPEN, _REASONING_CLOSE, _STEP_OPEN, _STEP_CLOSE, _ANSWER_OPEN, _ANSWER_CLOSE
        )
    }
    for ci in (False, True)
}
# Unicode \s is exactly str.isspace.
_SPACE = re.compile(r"\s*")
_ARROW = re.compile("|".join(map(re.escape, _ARROW_TOKENS)))


class TemplateParseError(Exception):
    """A document failed to parse; carries the primary violation only."""

    def __init__(self, kind: str, location: int, detail: str) -> None:
        super().__init__(f"{kind} at offset {location}: {detail}")
        self.kind = kind
        self.location = location
        self.detail = detail


@dataclass
class StructuredOutput:
    """A parsed (or parse-ready) reasoning graph plus its final answer."""

    graph: ReasoningGraph
    answer: str

    def __post_init__(self) -> None:
        self.answer = self.answer.strip()
        if not self.answer:
            raise ValueError("answer must be non-empty after stripping")


def _check_step(content: str, offset: int) -> None:
    """Raise the first rule one step body breaks: its arrow count, markup, an empty side."""
    parts = _ARROW.split(content)
    if len(parts) == 1:
        raise TemplateParseError(MALFORMED_STEP, offset, "step has no dependency arrow")
    if len(parts) > 2:
        raise TemplateParseError(
            MALFORMED_STEP, offset, "step has more than one arrow; chains are not sugar"
        )
    for raw in parts:
        side = raw.strip()
        if "<" in side or ">" in side:
            raise TemplateParseError(
                MALFORMED_STEP, offset, f"markup inside step text: {side!r}"
            )
        if not normalize_text(side):
            raise TemplateParseError(
                EMPTY_ENDPOINT, offset, "step endpoint is empty after normalization"
            )


def _template_patterns(ci: bool) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The pattern that accepts a whole document in one mode, and its step pattern.

    The document pattern captures the steps and the answer. A step body
    holds no ``<``, which in either mode is a markup error. The step
    pattern splits a body that holds one arrow and no other angle
    bracket, the only body the walk splits cleanly, and skips any other.
    Unicode ``\\s`` is exactly ``str.isspace``. Lenient tags fold ASCII
    letters only, and the lenient match starts at the first
    ``<reasoning>`` in any case.
    """

    def tag(name: str) -> str:
        return f"(?ai:{name})" if ci else name

    # The text up to the first </answer>, matched case-insensitively.
    answer = r"[^<]*(?:<(?!(?ai:/answer>))[^<]*)*"
    head = r"[^<]*(?:<(?!(?ai:reasoning>))[^<]*)*" if ci else r"\s*"
    tail = "" if ci else r"\s*\Z"
    step = tag("<step>") + "[^<]*" + tag("</step>")
    document = (
        rf"{head}{tag('<reasoning>')}((?:\s*{step})+)\s*{tag('</reasoning>')}"
        rf"\s*{tag('<answer>')}({answer}){tag('</answer>')}{tail}"
    )
    split = tag("<step>") + "([^<>→]*)(?:→|->)([^<>→]*)" + tag("</step>")
    return re.compile(document), re.compile(split)


_TEMPLATE = {STRICT: _template_patterns(False), LENIENT: _template_patterns(True)}


def parse(text: str, mode: str = STRICT) -> StructuredOutput:
    """Parse a template document into a StructuredOutput.

    Raises TemplateParseError carrying exactly one primary violation
    (kind, character offset, detail). ``mode`` is "strict" or
    "lenient"; lenient accepts a superset of strict and the two agree
    exactly on strict-valid input.
    """
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"unknown parse mode: {mode!r}")
    document, split = _TEMPLATE[mode]
    match = document.match(text)
    if match is not None:
        output = _from_match(match, split, mode == LENIENT)
        if output is not None:
            return output
    _walk(text, mode == LENIENT)


def _from_match(match: re.Match[str], split: re.Pattern[str], ci: bool) -> StructuredOutput | None:
    """The parse of a document the template pattern accepted.

    Raises ``duplicate-step`` (strict) and ``cycle-in-steps``, the two
    graph-level rules, which only this path checks. None when the steps
    or the answer break a rule the document pattern does not check (a
    step without exactly one arrow or with a stray ``>``, an empty
    endpoint or answer), so that the walk names the error in document
    order.
    """
    answer = match[2].strip()
    if not answer:
        return None
    steps = match[1]
    pairs = split.findall(steps)
    # Each step holds two of the block's "<"; a step the split skipped is malformed.
    if 2 * len(pairs) != steps.count("<"):
        return None
    # Chained steps repeat a side, so each distinct side is normalized once.
    keys: dict[str, str] = {}
    texts: dict[str, str] = {}
    for side in chain.from_iterable(pairs):
        if side not in keys:
            key = keys[side] = normalize_text(side)
            if key not in texts:
                texts[key] = side.strip()
    if "" in texts:
        return None
    edges = [(keys[lhs], keys[rhs]) for lhs, rhs in pairs]
    unique = dict.fromkeys(edges)
    collapsed: list[tuple[str, str]] = []
    if len(unique) < len(edges):
        # Rare: split the steps again for each repeat's offset and texts.
        seen: set[tuple[str, str]] = set()
        for step, edge in zip(split.finditer(match.string, match.start(1), match.end(1)), edges):
            if edge in seen:
                lhs, rhs = step[1].strip(), step[2].strip()
                if not ci:
                    raise TemplateParseError(
                        DUPLICATE_STEP, step.start(),
                        f"step repeats an earlier dependency: {lhs!r} -> {rhs!r}",
                    )
                collapsed.append((lhs, rhs))
            seen.add(edge)
    try:
        graph = ReasoningGraph(texts, unique)
    except InvalidGraphError as err:
        # The steps give distinct edges and put every node on one, so
        # only a cycle can fail the check; the error names it.
        raise TemplateParseError(CYCLE_IN_STEPS, match.start(1), str(err)) from None
    # Logged once the document is accepted.
    for lhs, rhs in collapsed:
        log.warning("lenient parse collapsed a duplicated step: %r -> %r", lhs, rhs)
    return StructuredOutput(graph, answer)


def _walk(text: str, ci: bool) -> NoReturn:
    """Name the first error of a document the pattern path declined.

    Walks the text tag by tag and raises the first violation of
    structure, of a step or of the answer, with its kind, offset and
    detail. It never returns: a document that breaks none of these rules
    is one the pattern path parses, graph-level rules included.
    """
    tags = _TAGS[ci]
    if ci:
        opening = tags[_REASONING_OPEN].search(text)
        if opening is None:
            raise TemplateParseError(
                MISSING_REASONING_BLOCK, 0, "no <reasoning> block found"
            )
    else:
        pos = _SPACE.match(text).end()
        opening = tags[_REASONING_OPEN].match(text, pos)
        if opening is None:
            raise TemplateParseError(
                MISSING_REASONING_BLOCK, pos, "document must open with <reasoning>"
            )

    block_start = pos = opening.end()
    steps = 0
    while True:
        pos = _SPACE.match(text, pos).end()
        if pos >= len(text):
            raise TemplateParseError(
                MISSING_REASONING_BLOCK, pos, "unterminated <reasoning> block"
            )
        if close := tags[_REASONING_CLOSE].match(text, pos):
            pos = close.end()
            break
        if not tags[_STEP_OPEN].match(text, pos):
            raise TemplateParseError(
                MALFORMED_STEP, pos, "unexpected content inside <reasoning> block"
            )
        body_start = pos + len(_STEP_OPEN)
        close = tags[_STEP_CLOSE].search(text, body_start)
        if close is None:
            raise TemplateParseError(MALFORMED_STEP, pos, "unterminated <step>")
        _check_step(text[body_start:close.start()], pos)
        steps += 1
        pos = close.end()

    if not steps:
        raise TemplateParseError(
            MALFORMED_STEP, block_start, "reasoning block contains no steps"
        )

    pos = _SPACE.match(text, pos).end()
    if not tags[_ANSWER_OPEN].match(text, pos):
        raise TemplateParseError(
            MISSING_ANSWER_BLOCK, pos, "expected <answer> after reasoning block"
        )
    answer_start = pos + len(_ANSWER_OPEN)
    # Both modes end the answer at the first </answer> in any case, so they
    # agree on where it ends; strict then insists on the exact tag.
    close = _TAGS[True][_ANSWER_CLOSE].search(text, answer_start)
    if close is None:
        raise TemplateParseError(MISSING_ANSWER_BLOCK, pos, "unterminated <answer> block")
    answer_end = close.start()
    if not ci and not text.startswith(_ANSWER_CLOSE, answer_end):
        raise TemplateParseError(
            MISSING_ANSWER_BLOCK, answer_end, "answer block must close with </answer>"
        )
    if not text[answer_start:answer_end].strip():
        raise TemplateParseError(MISSING_ANSWER_BLOCK, answer_start, "empty answer")

    if not ci:
        tail = _SPACE.match(text, close.end()).end()
        if tail != len(text):
            raise TemplateParseError(
                TRAILING_GARBAGE, tail, "content after </answer> in strict mode"
            )

    raise AssertionError("a document that breaks no rule the walk checks matches the pattern")


_RESERVED_IN_NODE = ("<", ">") + _ARROW_TOKENS


def render(output: StructuredOutput) -> str:
    """Render the canonical template document for ``output``.

    One step line per edge in insertion order, unicode arrow, answer
    block last; byte-deterministic. Every graph is a DAG whose nodes all
    lie on an edge, so the step grammar expresses any graph's structure;
    InvalidGraphError is raised only for text it cannot quote: a
    reserved token (arrow or angle bracket) inside a node's text, or an
    angle bracket in the answer.
    """
    texts = output.graph.texts
    for text in texts.values():
        for token in _RESERVED_IN_NODE:
            if token in text:
                raise InvalidGraphError(
                    f"node text contains reserved token {token!r}: {text!r}"
                )
    if "<" in output.answer or ">" in output.answer:
        raise InvalidGraphError("answer text may not contain angle brackets")

    lines = [_REASONING_OPEN]
    for parent, child in output.graph.edge_keys:
        lines.append(f"<step> {texts[parent]} {ARROW} {texts[child]} </step>")
    lines.append(_REASONING_CLOSE)
    lines.append(f"<answer> {output.answer} </answer>")
    return "\n".join(lines)


def find_answer_tag(text: str) -> str | None:
    """Stripped content of the last answer tag, or None when absent."""
    hits = _ANSWER_TAG_RE.findall(text)
    if not hits:
        return None
    return hits[-1].strip()


ANSWER_CUES = ("answer is", "answer:")
# Cues fold the case of their ASCII letters, as lenient tags do.
_CUE_RE = re.compile("|".join(map(re.escape, ANSWER_CUES)), re.IGNORECASE | re.ASCII)


def final_answer(text: str) -> str | None:
    """The answer a reply gives: the one rule that eval and the answer reward share.

    The content of the last answer tag wins, even when it is empty. A
    reply with no answer tag falls back to ``extract_untagged_answer``.
    Returns None only when the text holds nothing extractable.
    """
    tagged = find_answer_tag(text)
    if tagged is not None:
        return tagged
    return extract_untagged_answer(text)


def extract_untagged_answer(text: str) -> str | None:
    """The answer in prose, ignoring answer tags.

    The trailing segment after the last occurrence of any of
    ``ANSWER_CUES``, else the final non-empty line; None when the text is
    blank. Cues match with ASCII case folding, as tags do.
    """
    # No cue starts inside a match of either cue, so the last match is the
    # last occurrence of any cue.
    cues = list(_CUE_RE.finditer(text))
    if cues:
        segment = text[cues[-1].end():].strip().lstrip(":").strip()
        if segment:
            return segment
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else None
