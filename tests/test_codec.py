from __future__ import annotations

import contextlib
import logging
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason import codec
from graphreason.codec import (
    CYCLE_IN_STEPS,
    ANSWER_CUES,
    DUPLICATE_STEP,
    EMPTY_ENDPOINT,
    LENIENT,
    MALFORMED_STEP,
    MISSING_ANSWER_BLOCK,
    MISSING_REASONING_BLOCK,
    STRICT,
    TRAILING_GARBAGE,
    StructuredOutput,
    TemplateParseError,
    extract_untagged_answer,
    final_answer,
    find_answer_tag,
    parse,
    render,
)
from graphreason.graph import (
    InvalidGraphError,
    ReasoningGraph,
    normalize_text,
    strongly_connected_components,
)

from _util import random_output

FIXTURES = Path(__file__).parent / "fixtures"

MOVIE_DOC = """<reasoning>
<step> First iPhone released in 2007 → Compare release years </step>
<step> First Harry Potter movie released in 2001 → Compare release years </step>
<step> Compare release years → 2001 is earlier than 2007 </step>
</reasoning>
<answer> Harry Potter movie </answer>"""


def doc(steps: list[str], answer: str = "X") -> str:
    body = "\n".join(f"<step> {s} </step>" for s in steps)
    return f"<reasoning>\n{body}\n</reasoning>\n<answer> {answer} </answer>"


def kind_of(text: str, mode: str = STRICT) -> str:
    with pytest.raises(TemplateParseError) as err:
        parse(text, mode)
    assert 0 <= err.value.location <= len(text)
    return err.value.kind


class TestStrictParse:
    def test_movie_example(self):
        with _collapse_warnings() as collapsed:
            out = parse(MOVIE_DOC, STRICT)
        assert out.graph.node_count == 4
        assert out.graph.edge_count == 3
        assert collapsed == []
        assert out.answer == "Harry Potter movie"

    def test_ascii_arrow_accepted(self):
        out = parse(doc(["a -> b"]), STRICT)
        assert list(out.graph.edge_keys) == [("a", "b")]

    def test_case_study_fixture(self):
        out = parse((FIXTURES / "case_study.txt").read_text(), STRICT)
        assert out.graph.node_count == 9
        assert out.graph.edge_count == 8
        assert out.answer == "4"

    def test_zero_steps(self):
        text = "<reasoning></reasoning>\n<answer> 4 </answer>"
        assert kind_of(text) == MALFORMED_STEP

    def test_chained_arrows_are_not_sugar(self):
        assert kind_of(doc(["A → B → C"])) == MALFORMED_STEP

    def test_mixed_arrow_tokens_in_one_step(self):
        assert kind_of(doc(["A -> B → C"])) == MALFORMED_STEP

    def test_no_arrow(self):
        assert kind_of(doc(["A B"])) == MALFORMED_STEP

    def test_empty_endpoint(self):
        assert kind_of(doc(["→ B"])) == EMPTY_ENDPOINT

    def test_punctuation_only_endpoint(self):
        assert kind_of(doc(["A → ..."])) == EMPTY_ENDPOINT

    def test_markup_in_endpoint(self):
        assert kind_of(doc(["a <b> → c"])) == MALFORMED_STEP

    def test_duplicate_step(self):
        text = doc(["a → b", "c → d", "A -> b."])
        with pytest.raises(TemplateParseError) as err:
            parse(text, STRICT)
        assert (err.value.kind, err.value.location, err.value.detail) == (
            DUPLICATE_STEP,
            text.index("<step> A -> b."),
            "step repeats an earlier dependency: 'A' -> 'b.'",
        )

    def test_cycle_in_steps(self):
        assert kind_of(doc(["a → b", "b → a"])) == CYCLE_IN_STEPS

    def test_self_loop_step(self):
        assert kind_of(doc(["a → A"])) == CYCLE_IN_STEPS

    def test_missing_reasoning_block(self):
        assert kind_of("<answer> 4 </answer>") == MISSING_REASONING_BLOCK

    def test_prose_prefix_rejected(self):
        assert kind_of("Sure! " + doc(["a → b"])) == MISSING_REASONING_BLOCK

    def test_missing_answer_block(self):
        text = "<reasoning>\n<step> a → b </step>\n</reasoning>"
        assert kind_of(text) == MISSING_ANSWER_BLOCK

    def test_empty_answer(self):
        assert kind_of(doc(["a → b"], answer="  ")) == MISSING_ANSWER_BLOCK

    def test_trailing_garbage(self):
        assert kind_of(doc(["a → b"]) + "\nDone!") == TRAILING_GARBAGE

    def test_unterminated_step(self):
        text = "<reasoning>\n<step> a → b\n</reasoning>\n<answer> 4 </answer>"
        assert kind_of(text) == MALFORMED_STEP

    def test_case_sensitive_tags(self):
        text = doc(["a → b"]).replace("<reasoning>", "<Reasoning>")
        assert kind_of(text) == MISSING_REASONING_BLOCK

    def test_whitespace_padding_is_fine(self):
        out = parse("  \n" + doc(["a → b"]) + "\n\n", STRICT)
        assert out.answer == "X"

    def test_unicode_whitespace_pads_like_isspace(self):
        # U+3000, U+1680 and U+001C are str.isspace but not ASCII whitespace.
        text = doc(["a → b", "b → c"]).replace("\n", "\u3000\u1680\x1c")
        out = parse("\u3000" + text + "\u2029", STRICT)
        assert list(out.graph.edge_keys) == [("a", "b"), ("b", "c")]
        assert parse(text, LENIENT) == out


class TestLenientParse:
    def test_wrapping_prose_tolerated(self):
        text = "Sure, here you go:\n" + doc(["a → b"]) + "\nHope that helps!"
        out = parse(text, LENIENT)
        assert list(out.graph.edge_keys) == [("a", "b")]

    def test_case_insensitive_tags(self):
        text = doc(["a → b"]).upper().replace("A → B", "a → b")
        out = parse(text, LENIENT)
        assert out.answer == "X"

    def test_duplicate_steps_collapse_with_warning(self):
        text = doc(["a → b", "A → b."])
        with _collapse_warnings() as collapsed:
            out = parse(text, LENIENT)
        # Two step lines: one edge, and one collapse warning for the repeat.
        assert out.graph.edge_count == 1
        assert collapsed == [("A", "b.")]

    def test_a_repeated_step_in_a_cyclic_document_logs_no_collapse(self):
        text = doc(["a → b", "A → b.", "b → a"])
        with _collapse_warnings() as collapsed:
            assert kind_of(text, LENIENT) == CYCLE_IN_STEPS
        assert collapsed == []

    def test_agrees_with_strict_on_strict_valid_input(self):
        for text in (MOVIE_DOC, doc(["a → b", "b → c"])):
            assert parse(text, LENIENT) == parse(text, STRICT)

    def test_still_rejects_cycles(self):
        assert kind_of(doc(["a → b", "b → a"]), LENIENT) == CYCLE_IN_STEPS

    def test_still_rejects_missing_block(self):
        assert kind_of("no template here", LENIENT) == MISSING_REASONING_BLOCK

    def test_text_that_lowercases_longer_parses(self):
        # "İ".lower() is two code points; tags are matched on the text itself.
        text = doc(["İstanbul → İzmir", "İzmir → b"])
        assert parse(text, LENIENT) == parse(text, STRICT)
        wrapped = "İİİ said:\n" + text.replace("</step>", "</STEP>") + "\nİ"
        assert parse(wrapped, LENIENT) == parse(text, STRICT)

    def test_block_starts_at_the_first_reasoning_tag(self):
        # A later, well-formed block does not rescue a broken first one.
        text = "<REASONING> oops " + doc(["a → b"])
        with pytest.raises(TemplateParseError) as err:
            parse(text, LENIENT)
        assert (err.value.kind, err.value.location) == (MALFORMED_STEP, text.index("oops"))

    def test_non_ascii_lookalikes_are_not_tag_letters(self):
        # "ſ" folds to "s" and the Kelvin sign to "k" under unicode rules.
        text = doc(["a → b"]).replace("<step>", "<ſtep>")
        assert kind_of(text, LENIENT) == MALFORMED_STEP
        text = doc(["a → b"]).replace("<reasoning>", "<reaſoning>")
        assert kind_of(text, LENIENT) == MISSING_REASONING_BLOCK


class TestAnswerClose:
    """Both modes end the answer at the first </answer> in any case."""

    def test_miscased_close_inside_answer(self):
        text = "<reasoning>\n<step> a -> b </step>\n</reasoning>\n<answer> x </ANSWER> y </answer>"
        with pytest.raises(TemplateParseError) as err:
            parse(text, STRICT)
        assert err.value.kind == MISSING_ANSWER_BLOCK
        assert err.value.location == text.index("</ANSWER>")
        assert parse(text, LENIENT).answer == "x"

    def test_miscased_close_ending_an_empty_answer(self):
        text = "<reasoning> <step>c->d</step></reasoning><answer></ANSWER><answer></answer>"
        assert kind_of(text, STRICT) == MISSING_ANSWER_BLOCK
        assert kind_of(text, LENIENT) == MISSING_ANSWER_BLOCK

    def test_exact_close_unchanged(self):
        assert parse(doc(["a → b"], answer="x < y"), STRICT).answer == "x < y"


class TestGrammarOracle:
    """Enumerated documents near the grammar floor, checked exhaustively."""

    def test_every_failure_carries_one_primary_kind(self):
        bad_docs = [
            "",
            "prose only",
            "<reasoning>",
            "<reasoning></reasoning>",
            doc(["a → b"]) + " tail",
            doc(["→ b"]),
            doc(["a → b", "a → b"]),
        ]
        for text in bad_docs:
            with pytest.raises(TemplateParseError) as err:
                parse(text, STRICT)
            assert err.value.kind in {
                MISSING_REASONING_BLOCK,
                MISSING_ANSWER_BLOCK,
                MALFORMED_STEP,
                EMPTY_ENDPOINT,
                DUPLICATE_STEP,
                CYCLE_IN_STEPS,
                TRAILING_GARBAGE,
            }


class TestRender:
    def test_minimal_canonical_document(self):
        out = StructuredOutput(ReasoningGraph.from_edges([("A", "B")]), "X")
        assert render(out) == (
            "<reasoning>\n<step> A → B </step>\n</reasoning>\n<answer> X </answer>"
        )

    def test_unicode_arrow_is_canonical(self):
        out = parse(doc(["a -> b"]), STRICT)
        assert "->" not in render(out)
        assert "→" in render(out)

    def test_render_is_deterministic(self):
        out = parse(MOVIE_DOC, STRICT)
        assert render(out) == render(out)

    def test_edge_order_preserved(self):
        g = ReasoningGraph.from_edges([("b", "c"), ("a", "b"), ("a", "c")])
        text = render(StructuredOutput(g, "done"))
        lines = [l for l in text.splitlines() if l.startswith("<step>")]
        assert lines == [
            "<step> b → c </step>",
            "<step> a → b </step>",
            "<step> a → c </step>",
        ]

    def test_rejects_cyclic_graph(self):
        # A cyclic graph cannot be built, so it never reaches render().
        with pytest.raises(InvalidGraphError):
            g = ReasoningGraph.from_edges([("a", "b"), ("b", "a")])
            render(StructuredOutput(graph=g, answer="x"))

    def test_rejects_isolated_node(self):
        # Nor can a graph with a node on no edge, which no step could express.
        with pytest.raises(InvalidGraphError):
            g = ReasoningGraph({"a": "a", "b": "b", "floating": "floating"}, [("a", "b")])
            render(StructuredOutput(graph=g, answer="x"))

    def test_rejects_arrow_token_in_node_text(self):
        g = ReasoningGraph.from_edges([("uses -> arrow", "tail")])
        with pytest.raises(InvalidGraphError):
            render(StructuredOutput(g, "x"))

    def test_rejects_markup_in_answer(self):
        g = ReasoningGraph.from_edges([("a", "b")])
        with pytest.raises(InvalidGraphError):
            render(StructuredOutput(g, "a<b"))

    def test_structured_output_invariants(self):
        with pytest.raises(ValueError):
            StructuredOutput(graph=ReasoningGraph.from_edges([("a", "b")]), answer="  ")


class TestRoundTrip:
    def test_case_study_round_trip(self):
        out = parse((FIXTURES / "case_study.txt").read_text(), STRICT)
        assert parse(render(out), STRICT) == out

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_round_trip(self, seed):
        out = random_output(random.Random(seed), max_nodes=25)
        again = parse(render(out), STRICT)
        assert again == out
        assert render(again) == render(out)


def _holds_cue(text: str) -> bool:
    low = text.lower()
    return any(cue in low for cue in ANSWER_CUES)


class TestAnswerExtraction:
    def test_tag_wins(self):
        assert final_answer("junk <answer> 42 </answer> junk") == "42"

    def test_last_tag_wins(self):
        text = "<answer> first </answer> then <answer> second </answer>"
        assert final_answer(text) == "second"

    def test_cue_segment(self):
        assert final_answer("…therefore the answer is B.") == "B."

    def test_cue_with_colon(self):
        assert final_answer("Answer: C") == "C"

    def test_final_line_fallback(self):
        assert final_answer("thinking...\n\n42\n") == "42"

    def test_empty_input(self):
        assert final_answer("") is None
        assert final_answer("   \n ") is None

    def test_empty_last_tag_is_the_answer(self):
        # An empty tag wins over an earlier tag and over a cue in the prose after it.
        assert final_answer("<answer> 3 </answer> then <answer></answer> so the answer is 4") == ""

    def test_find_answer_tag_distinguishes_empty_and_absent(self):
        assert find_answer_tag("no tags") is None
        assert find_answer_tag("<answer>   </answer>") == ""
        assert find_answer_tag("<ANSWER> B </ANSWER>") == "B"

    def test_cue_after_text_that_lowercases_longer(self):
        # "İ".lower() is two code points; the cue is found on the text itself.
        assert final_answer("İİ in İstanbul the answer is 42") == "42"
        assert extract_untagged_answer("İ ANSWER: İzmir") == "İzmir"

    def test_cue_letters_fold_ascii_only(self):
        # Under unicode rules "ſ" folds to "s", so "anſwer:" would be a cue.
        assert extract_untagged_answer("the anſwer: 5") == "the anſwer: 5"
        assert extract_untagged_answer("the ANSWER: 5") == "5"
        # The Kelvin sign lowercases to the one-byte "k": the cut still lands after the cue.
        assert extract_untagged_answer("\u212a\u212a the ANSWER IS 5") == "5"

    @pytest.mark.parametrize(
        "text", ["<anſwer> 7 </anſwer>", "<anſwer> 7 </answer>", "<answer> 7 </anſwer>"]
    )
    def test_answer_tag_letters_fold_ascii_only(self, text):
        # "ſ" folds to "s" under unicode rules; lenient parse refuses such tags.
        assert find_answer_tag(text) is None
        assert final_answer(text) == text
        assert kind_of(f"<reasoning><step> a → b </step></reasoning>{text}", LENIENT) == (
            MISSING_ANSWER_BLOCK
        )

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.text(alphabet=st.sampled_from("İıaAnswer :.\n")).filter(
            lambda t: "İ" in t and not _holds_cue(t)
        ),
        # A leading ":" after the cue is dropped, so no answer starts with one.
        answer=st.text(min_size=1).filter(
            lambda a: a.strip() and not a.strip().startswith(":") and not _holds_cue(a)
        ),
    )
    def test_cue_after_a_dotted_capital_i_prefix(self, prefix, answer):
        assert extract_untagged_answer(prefix + " the answer is " + answer) == answer.strip()


# -- properties over arbitrary unicode ---------------------------------

_TAGS = ("<reasoning>", "</reasoning>", "<step>", "</step>", "<answer>", "</answer>")
# "İ" lowercases to two code points; "ſ" and the Kelvin sign fold to ASCII
# letters under unicode case rules.
_TRICKY = ("İ", "ſ", "\u212a")
_FRAGMENTS = (
    _TAGS
    + tuple(tag.upper() for tag in _TAGS)
    + ("</Answer>", "<Step>", "</ſtep>", "<İ>", "->", "→", " ", "\n", "<", ">")
    + _TRICKY
)
_noise = st.lists(
    st.one_of(st.text(max_size=3), st.sampled_from(_FRAGMENTS)), max_size=4
).map("".join)
_spacing = st.sampled_from(("", " ", "\n", "\u3000\t"))
_words = st.text(alphabet=st.sampled_from(("a", "b", "X", " ") + _TRICKY), min_size=1, max_size=6)


@st.composite
def _near_template(draw) -> str:
    """Template-shaped documents: about one piece in 30 is damaged or noise."""

    def mostly(common, odd):
        # Hypothesis over-weights the ends of an integer range, so the odd
        # branch takes an inner value; at an end it came up in bursts.
        return draw(odd if draw(st.integers(0, 29)) == 15 else common)

    def tag(name: str) -> str:
        return mostly(st.just(name), st.sampled_from((name.upper(), name.title())))

    def pad() -> str:
        return mostly(_spacing, _noise)

    def text(suffix: str) -> str:
        return mostly(_words.map(lambda w: f"{w} {suffix}"), _noise)

    parts = [pad(), tag("<reasoning>")]
    # A step-free reasoning block is damage too, so it is as rare.
    for i in range(mostly(st.integers(1, 3), st.just(0))):
        arrow = draw(st.sampled_from(("->", "→")))
        parent, child = text(f"p{i}"), text(f"c{i}")
        step = [pad(), tag("<step>"), parent, arrow, child, tag("</step>")]
        # A repeated step is damage too: strict refuses it and lenient collapses it.
        parts += step * mostly(st.just(1), st.just(2))
        # So is a step back from the child to the parent, which closes a cycle.
        parts += [pad(), tag("<step>"), child, arrow, parent, tag("</step>")] * mostly(
            st.just(0), st.just(1)
        )
    # A mis-cased close inside the answer is where the two modes used to part.
    answer = text("") + draw(st.sampled_from(("", "", "</ANSWER>", " </Answer> x")))
    parts += [pad(), tag("</reasoning>"), pad(), tag("<answer>"), answer]
    parts += [tag("</answer>"), pad()]
    return "".join(parts)


_documents = st.one_of(
    _near_template(),
    st.lists(st.one_of(st.text(), st.sampled_from(_FRAGMENTS))).map("".join),
)


class _AnswerClass(Exception):
    """The input is one whose answer close the parent read differently."""

    def __init__(self, location: int) -> None:
        self.location = location


def _parent_split_step(content: str, offset: int) -> tuple[str, str, str, str]:
    arrow_hits = content.count("→") + content.count("->")
    if arrow_hits == 0:
        raise TemplateParseError(MALFORMED_STEP, offset, "step has no dependency arrow")
    if arrow_hits > 1:
        raise TemplateParseError(
            MALFORMED_STEP, offset, "step has more than one arrow; chains are not sugar"
        )
    lhs, rhs = content.split("→", 1) if "→" in content else content.split("->", 1)
    sides: list[tuple[str, str]] = []
    for raw in (lhs, rhs):
        side = raw.strip()
        if "<" in side or ">" in side:
            raise TemplateParseError(MALFORMED_STEP, offset, f"markup inside step text: {side!r}")
        key = normalize_text(side)
        if not key:
            raise TemplateParseError(
                EMPTY_ENDPOINT, offset, "step endpoint is empty after normalization"
            )
        sides.append((side, key))
    return (*sides[0], *sides[1])


def _parent_strict_parse(text: str) -> StructuredOutput:
    """The strict parse as it stood before the answer-close rule.

    Raises _AnswerClass where the rule applies: the first case-insensitive
    </answer> after <answer> is not the exact tag.
    """

    def skip_ws(pos: int) -> int:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    pos = skip_ws(0)
    if text[pos : pos + 11] != "<reasoning>":
        raise TemplateParseError(
            MISSING_REASONING_BLOCK, pos, "document must open with <reasoning>"
        )
    pos += 11
    block_start = pos
    steps = []
    while True:
        pos = skip_ws(pos)
        if pos >= len(text):
            raise TemplateParseError(MISSING_REASONING_BLOCK, pos, "unterminated <reasoning> block")
        if text[pos : pos + 12] == "</reasoning>":
            pos += 12
            break
        if text[pos : pos + 6] == "<step>":
            end = text.find("</step>", pos + 6)
            if end < 0:
                raise TemplateParseError(MALFORMED_STEP, pos, "unterminated <step>")
            steps.append((*_parent_split_step(text[pos + 6 : end], pos), pos))
            pos = end + 7
            continue
        raise TemplateParseError(MALFORMED_STEP, pos, "unexpected content inside <reasoning> block")
    if not steps:
        raise TemplateParseError(MALFORMED_STEP, block_start, "reasoning block contains no steps")
    pos = skip_ws(pos)
    if text[pos : pos + 8] != "<answer>":
        raise TemplateParseError(MISSING_ANSWER_BLOCK, pos, "expected <answer> after reasoning block")
    answer_start = pos + 8
    answer_end = text.find("</answer>", answer_start)
    first_close = re.compile("</answer>", re.IGNORECASE | re.ASCII).search(text, answer_start)
    if first_close and first_close.start() != answer_end:
        raise _AnswerClass(first_close.start())
    if answer_end < 0:
        raise TemplateParseError(MISSING_ANSWER_BLOCK, pos, "unterminated <answer> block")
    answer = text[answer_start:answer_end].strip()
    if not answer:
        raise TemplateParseError(MISSING_ANSWER_BLOCK, answer_start, "empty answer")
    tail = skip_ws(answer_end + 9)
    if tail != len(text):
        raise TemplateParseError(TRAILING_GARBAGE, tail, "content after </answer> in strict mode")
    texts: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    for lhs, lkey, rhs, rkey, loc in steps:
        texts.setdefault(lkey, lhs)
        texts.setdefault(rkey, rhs)
        if (lkey, rkey) in edges:
            raise TemplateParseError(
                DUPLICATE_STEP, loc, f"step repeats an earlier dependency: {lhs!r} -> {rhs!r}"
            )
        edges.append((lkey, rkey))
    for parent, child in edges:
        if parent == child:
            raise TemplateParseError(CYCLE_IN_STEPS, block_start, f"self-loop on {parent!r}")
    for component in strongly_connected_components(texts, edges):
        if len(component) > 1:
            raise TemplateParseError(
                CYCLE_IN_STEPS, block_start, "cycle through " + " -> ".join(component)
            )
    graph = ReasoningGraph.from_edges((texts[parent], texts[child]) for parent, child in edges)
    return StructuredOutput(graph=graph, answer=answer)


_PARENT_TAG_CI = {tag: re.compile(re.escape(tag), re.IGNORECASE | re.ASCII) for tag in _TAGS}


def _parent_lenient_parse(text: str, collapsed: list[tuple[str, str]]) -> StructuredOutput:
    """The lenient parse as it stood before the template pattern: one forward walk.

    Appends (parent text, child text) to ``collapsed`` for each duplicated
    step it collapses, where the parse logs a warning.
    """

    def skip_ws(pos: int) -> int:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    def at(pos: int, tag: str) -> bool:
        return _PARENT_TAG_CI[tag].match(text, pos) is not None

    def find(tag: str, start: int) -> int:
        hit = _PARENT_TAG_CI[tag].search(text, start)
        return hit.start() if hit else -1

    start = find("<reasoning>", 0)
    if start < 0:
        raise TemplateParseError(MISSING_REASONING_BLOCK, 0, "no <reasoning> block found")
    pos = block_start = start + 11
    steps = []
    while True:
        pos = skip_ws(pos)
        if pos >= len(text):
            raise TemplateParseError(MISSING_REASONING_BLOCK, pos, "unterminated <reasoning> block")
        if at(pos, "</reasoning>"):
            pos += 12
            break
        if at(pos, "<step>"):
            end = find("</step>", pos + 6)
            if end < 0:
                raise TemplateParseError(MALFORMED_STEP, pos, "unterminated <step>")
            steps.append((*_parent_split_step(text[pos + 6 : end], pos), pos))
            pos = end + 7
            continue
        raise TemplateParseError(MALFORMED_STEP, pos, "unexpected content inside <reasoning> block")
    if not steps:
        raise TemplateParseError(MALFORMED_STEP, block_start, "reasoning block contains no steps")
    pos = skip_ws(pos)
    if not at(pos, "<answer>"):
        raise TemplateParseError(MISSING_ANSWER_BLOCK, pos, "expected <answer> after reasoning block")
    answer_start = pos + 8
    answer_end = find("</answer>", answer_start)
    if answer_end < 0:
        raise TemplateParseError(MISSING_ANSWER_BLOCK, pos, "unterminated <answer> block")
    answer = text[answer_start:answer_end].strip()
    if not answer:
        raise TemplateParseError(MISSING_ANSWER_BLOCK, answer_start, "empty answer")
    texts: dict[str, str] = {}
    edges: dict[tuple[str, str], None] = {}
    for lhs, lkey, rhs, rkey, _ in steps:
        texts.setdefault(lkey, lhs)
        texts.setdefault(rkey, rhs)
        if (lkey, rkey) in edges:
            collapsed.append((lhs, rhs))
        edges[(lkey, rkey)] = None
    try:
        graph = ReasoningGraph(texts, edges)
    except InvalidGraphError as err:
        raise TemplateParseError(CYCLE_IN_STEPS, block_start, str(err)) from None
    return StructuredOutput(graph=graph, answer=answer)


@contextlib.contextmanager
def _collapse_warnings():
    """Yields the (parent, child) texts of each collapse warning the codec logs."""
    collapsed: list[tuple[str, str]] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            if "collapsed a duplicated step" in record.msg:
                collapsed.append(record.args)

    logger = logging.getLogger("graphreason.codec")
    handler, level = Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield collapsed
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _outcome(text: str, parser) -> tuple:
    try:
        out = parser(text)
    except TemplateParseError as err:
        return ("error", err.kind, err.location, err.detail)
    return ("ok", out.graph.edge_keys, dict(out.graph.texts), out.answer)


class TestParseProperties:
    @settings(max_examples=400, deadline=None)
    @given(text=_documents)
    def test_strict_ok_implies_equal_lenient_result(self, text):
        try:
            strict = parse(text, STRICT)
        except TemplateParseError:
            return
        with _collapse_warnings() as collapsed:
            lenient = parse(text, LENIENT)
        assert lenient.graph.edge_keys == strict.graph.edge_keys
        assert dict(lenient.graph.texts) == dict(strict.graph.texts)
        assert lenient.answer == strict.answer
        assert collapsed == []

    @settings(max_examples=400, deadline=None)
    @given(text=_documents)
    def test_lenient_error_locations_index_the_text(self, text):
        try:
            parse(text, LENIENT)
        except TemplateParseError as err:
            assert 0 <= err.location <= len(text)

    @settings(max_examples=400, deadline=None)
    @given(text=_documents)
    def test_strict_matches_parent_outside_the_answer_close_rule(self, text):
        with _collapse_warnings() as collapsed:
            new = _outcome(text, lambda t: parse(t, STRICT))
        assert collapsed == []
        try:
            old = _outcome(text, _parent_strict_parse)
        except _AnswerClass as rule:
            assert new[:3] == ("error", MISSING_ANSWER_BLOCK, rule.location)
            return
        assert new == old

    @settings(max_examples=400, deadline=None)
    @given(text=_documents)
    def test_lenient_matches_the_parent_walk(self, text):
        parent_collapsed: list[tuple[str, str]] = []
        with _collapse_warnings() as collapsed:
            new = _outcome(text, lambda t: parse(t, LENIENT))
        old = _outcome(text, lambda t: _parent_lenient_parse(t, parent_collapsed))
        assert new == old
        # A document the parse rejects logs no collapse; the parent walk's
        # collapses are compared only where the parse succeeds.
        assert collapsed == (parent_collapsed if new[0] == "ok" else [])

    @settings(max_examples=400, deadline=None)
    @given(text=_documents, mode=st.sampled_from((STRICT, LENIENT)))
    def test_the_walk_only_names_errors(self, text, mode):
        # The template pattern accepts every valid document itself and checks
        # its graph-level rules, so the character walk runs only to name an
        # error of structure, of a step or of the answer.
        walk = codec._walk

        def walk_that_must_raise(text: str, ci: bool) -> StructuredOutput:
            try:
                output = walk(text, ci)
            except TemplateParseError as err:
                assert err.kind not in (DUPLICATE_STEP, CYCLE_IN_STEPS), err
                raise
            pytest.fail(f"the walk parsed a document the pattern declined: {output!r}")

        with mock.patch.object(codec, "_walk", walk_that_must_raise):
            _outcome(text, lambda t: parse(t, mode))

    def test_near_template_documents_reach_strict_acceptance(self):
        # Guards the strategy: the first property is vacuous unless many
        # drawn documents strict-parse.
        accepted = []

        @settings(max_examples=200, deadline=None, database=None)
        @given(text=_near_template())
        def draw(text):
            accepted.append(_outcome(text, lambda t: parse(t, STRICT))[0] == "ok")

        draw()
        assert sum(accepted) >= len(accepted) // 10

