from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import traced_peak
from graphreason.bench import (
    ADAPTERS,
    BENCHMARKS,
    BenchmarkItem,
    BenchmarkScore,
    EvalReport,
    ItemRecord,
    PARADIGMS,
    SchemaError,
    check_paradigm,
    evaluate,
    evaluate_item,
    extract_candidate,
    load_aiw,
    load_aiw_plus,
    load_arlsat,
    load_benchmark,
    load_logiqa,
    load_mathqa,
    load_medqa,
    parse_packed_options,
    percent,
    read_items,
    render_table,
    write_items,
    write_report,
)
from graphreason.client import (
    ChatClient,
    MockBackend,
    ProtocolError,
    SamplingConfig,
)
from graphreason.codec import LENIENT, STRICT, TemplateParseError, final_answer, parse
from graphreason.rewards import reward_answer

from test_codec import _documents

CONFIG = SamplingConfig(model_name="mock-eval", temperature=0.9, k=5)


def graph_doc(tag: str, answer: str) -> str:
    return (
        "<reasoning>\n"
        f"<step> {tag} premise → {tag} middle </step>\n"
        f"<step> {tag} middle → {tag} conclusion </step>\n"
        "</reasoning>\n"
        f"<answer> {answer} </answer>"
    )


def client_for(replies, **kw) -> ChatClient:
    return ChatClient(MockBackend(replies, **kw), sleep=lambda _: None)


class TestLogiqa:
    def test_loads_and_letters(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text(
            json.dumps(
                {
                    "text": "All swans observed so far are white.",
                    "question": "Which conclusion follows?",
                    "options": ["first", "second", "third", "fourth"],
                    "answer": 1,
                }
            )
            + "\n"
        )
        items = load_logiqa(path)
        assert len(items) == 1
        item = items[0]
        assert item.benchmark == "logiqa"
        assert item.label == "B"
        assert item.item_id == "logiqa-1"
        assert "All swans observed so far are white." in item.question
        assert "\n\nA. first\nB. second\nC. third\nD. fourth" in item.question

    def test_missing_field_names_location(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text('{"text": "t", "question": "q", "options": ["a", "b"]}\n')
        with pytest.raises(SchemaError, match=r"test\.txt:1: missing field 'answer'"):
            load_logiqa(path)

    def test_answer_index_out_of_range(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text(
            json.dumps({"text": "t", "question": "q", "options": ["a", "b"], "answer": 7}) + "\n"
        )
        message = r"test\.txt:1: field 'answer' must name one of options A-B$"
        with pytest.raises(SchemaError, match=message):
            load_logiqa(path)

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text("{oops\n")
        with pytest.raises(SchemaError, match=r"test\.txt:1: invalid JSON"):
            load_logiqa(path)


class TestAiw:
    def test_loads_prompts(self, tmp_path):
        path = tmp_path / "aiw.json"
        path.write_text(
            json.dumps(
                [
                    {"prompt": "Alice has 3 brothers. How many?", "right_answer": 4},
                    {"id": "v2-7", "prompt": "Variation two.", "right_answer": "6"},
                ]
            )
        )
        items = load_aiw(path)
        assert [i.item_id for i in items] == ["aiw-1", "v2-7"]
        assert [i.label for i in items] == ["4", "6"]
        assert all(i.benchmark == "aiw" for i in items)

    def test_plus_variant_is_distinct_benchmark(self, tmp_path):
        path = tmp_path / "aiw_plus.json"
        path.write_text(json.dumps([{"prompt": "Harder one.", "right_answer": 2}]))
        items = load_aiw_plus(path)
        assert items[0].benchmark == "aiw_plus"
        assert items[0].item_id == "aiw_plus-1"

    def test_array_required(self, tmp_path):
        path = tmp_path / "aiw.json"
        path.write_text(json.dumps({"prompt": "x"}))
        with pytest.raises(SchemaError, match="array"):
            load_aiw(path)


class TestArlsat:
    def test_nested_passages(self, tmp_path):
        path = tmp_path / "arlsat.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "passage": "Six people sit in a row.",
                        "questions": [
                            {
                                "question": "Who sits first?",
                                "options": ["p", "q", "r", "s", "t"],
                                "answer": "c",
                            },
                            {
                                "question": "Who sits last?",
                                "options": ["p", "q", "r", "s", "t"],
                                "answer": 0,
                            },
                        ],
                    }
                ]
            )
        )
        items = load_arlsat(path)
        assert [i.item_id for i in items] == ["arlsat-1-1", "arlsat-1-2"]
        assert [i.label for i in items] == ["C", "A"]
        assert all("Six people sit in a row." in i.question for i in items)

    def test_bad_letter(self, tmp_path):
        path = tmp_path / "arlsat.json"
        path.write_text(
            json.dumps(
                [{"passage": "p", "questions": [{"question": "q", "options": ["a"], "answer": "Z"}]}]
            )
        )
        with pytest.raises(SchemaError, match="passage 1 question 1"):
            load_arlsat(path)

    def test_question_must_be_an_object(self, tmp_path):
        path = tmp_path / "arlsat.json"
        path.write_text(json.dumps([{"passage": "p", "questions": ["question"]}]))
        with pytest.raises(SchemaError) as err:
            load_arlsat(path)
        assert str(err.value) == f"{path}: passage 1 question 1: expected an object"

    def test_options_must_be_a_list(self, tmp_path):
        path = tmp_path / "arlsat.json"
        path.write_text(
            json.dumps(
                [{"passage": "p", "questions": [{"question": "q", "options": "AB", "answer": "A"}]}]
            )
        )
        with pytest.raises(SchemaError) as err:
            load_arlsat(path)
        assert str(err.value) == f"{path}: passage 1 question 1: field 'options' must be a list"


class TestMedqa:
    def test_letter_keyed_options(self, tmp_path):
        path = tmp_path / "medqa.jsonl"
        path.write_text(
            json.dumps(
                {
                    "question": "Which drug?",
                    "options": {"A": "aspirin", "B": "biotin", "C": "codeine", "D": "dopamine"},
                    "answer_idx": "C",
                }
            )
            + "\n"
        )
        items = load_medqa(path)
        assert items[0].label == "C"
        assert "C. codeine" in items[0].question

    def test_gapped_letters_rejected(self, tmp_path):
        path = tmp_path / "medqa.jsonl"
        path.write_text(
            json.dumps({"question": "q", "options": {"A": "x", "C": "y"}, "answer_idx": "A"})
            + "\n"
        )
        with pytest.raises(SchemaError, match=r"jsonl:1: field 'options' must be keyed A, B, "):
            load_medqa(path)


class TestMathqa:
    def test_packed_options(self, tmp_path):
        path = tmp_path / "mathqa.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "Problem": "A train travels 60 km.",
                        "options": "a ) 38 , b ) 27.675 , c ) rs . 1,000 , d ) 30 , e ) none of these",
                        "correct": "c",
                    }
                ]
            )
        )
        items = load_mathqa(path)
        assert items[0].label == "C"
        assert "C. rs . 1,000" in items[0].question
        assert "E. none of these" in items[0].question

    def test_packed_option_parser(self):
        options = parse_packed_options("a ) 1 , b ) 2 , c ) 3", "w")
        assert options == ["1", "2", "3"]

    def test_packed_parser_rejects_disorder(self):
        for packed in ("b ) 1 , a ) 2", "a ) 1 , b ) 2 , c ) 3 , d ) 4 , e ) 5 , a ) 6"):
            with pytest.raises(SchemaError):
                parse_packed_options(packed, "w")

    def test_unknown_correct_letter(self, tmp_path):
        path = tmp_path / "mathqa.json"
        path.write_text(
            json.dumps([{"Problem": "p", "options": "a ) 1 , b ) 2", "correct": "e"}])
        )
        message = r": item 1: field 'correct' must name one of options A-B$"
        with pytest.raises(SchemaError, match=message):
            load_mathqa(path)


class TestRegistry:
    def test_six_adapters(self):
        assert BENCHMARKS == ("logiqa", "aiw", "aiw_plus", "arlsat", "medqa", "mathqa")
        assert set(ADAPTERS) == set(BENCHMARKS)

    def test_dispatch(self, tmp_path):
        path = tmp_path / "aiw.json"
        path.write_text(json.dumps([{"prompt": "x", "right_answer": 1}]))
        assert load_benchmark("aiw", path)[0].benchmark == "aiw"

    def test_unknown_benchmark(self):
        with pytest.raises(SchemaError, match="unknown benchmark"):
            load_benchmark("gsm8k", "nowhere.json")


class TestReadItems:
    ROW = {"question": "q?", "label": "4", "benchmark": "aiw", "item_id": "aiw-1"}

    def test_round_trip(self, tmp_path):
        items = [item(1), item(2, "logiqa", "B")]
        write_items(items, tmp_path / "items.jsonl")
        assert read_items(tmp_path / "items.jsonl") == items

    @pytest.mark.parametrize("field", list(ROW))
    @pytest.mark.parametrize("value", [None, 4, True, ["q"]], ids=["null", "int", "bool", "list"])
    def test_field_that_is_not_a_string_names_line_and_field(self, tmp_path, field, value):
        path = tmp_path / "items.jsonl"
        rows = [self.ROW, {**self.ROW, "item_id": "aiw-2", field: value}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        if field == "label" and type(value) is int:
            # The label rule, as for a source's label: a finite number reads as its text.
            assert read_items(path)[1].label == "4"
            return
        with pytest.raises(SchemaError, match=rf"items\.jsonl:2: field '{field}' must be a string"):
            read_items(path)


def item(n: int, benchmark: str = "aiw", label: str = "4") -> BenchmarkItem:
    return BenchmarkItem(f"q{n}: question text", label, benchmark, f"{benchmark}-{n}")


class TestExtractCandidate:
    def test_self_graph_strict(self):
        candidate, nodes, edges = extract_candidate(graph_doc("t", "C"), "self-graph")
        assert (candidate, nodes, edges) == ("C", 3, 2)

    def test_self_graph_lenient(self):
        text = "Here is my reasoning:\n" + graph_doc("t", "B")
        candidate, nodes, edges = extract_candidate(text, "self-graph")
        assert (candidate, nodes, edges) == ("B", 3, 2)

    def test_self_graph_falls_back_to_cues(self):
        candidate, nodes, edges = extract_candidate(
            "no structure here. The answer is 7", "self-graph"
        )
        assert (candidate, nodes, edges) == ("7", None, None)

    def test_linear_uses_cue(self):
        candidate, _, _ = extract_candidate("step one.\nThe answer is 42", "linear")
        assert candidate == "42"

    def test_direct_uses_raw_line(self):
        candidate, _, _ = extract_candidate("B", "direct")
        assert candidate == "B"

    def test_self_graph_later_tag_is_the_answer(self):
        text = graph_doc("t", "3") + "\nWait, actually <answer> 4 </answer>"
        assert extract_candidate(text, "self-graph") == ("4", 3, 2)

    def test_self_graph_empty_tag_is_the_answer(self):
        text = "<answer></answer> so the answer is 4"
        assert extract_candidate(text, "self-graph") == ("", None, None)

    @settings(max_examples=300, deadline=None)
    @given(text=_documents)
    def test_single_lenient_parse_matches_strict_then_lenient(self, text):
        candidate, nodes, edges = extract_candidate(text, "self-graph")
        assert candidate == final_answer(text)
        assert (nodes, edges) == _strict_then_lenient_counts(text)


def _strict_then_lenient_counts(text: str) -> tuple[int | None, int | None]:
    """Frozen copy of the earlier self-graph extract_candidate's counts: strict, then lenient."""
    for mode in (STRICT, LENIENT):
        try:
            graph = parse(text, mode).graph
        except TemplateParseError:
            continue
        return graph.node_count, graph.edge_count
    return None, None


# Answers that the spliced tags and cues carry; labels are drawn from the non-blank ones.
_ANSWERS = ("3", "4", "B", "b.", "  ", "")
_splice = st.lists(
    st.one_of(
        st.text(max_size=4),
        st.sampled_from((" ", "\n", "Wait, actually ")),
        st.sampled_from(_ANSWERS).map(lambda a: f"<answer>{a}</answer>"),
        st.sampled_from(_ANSWERS).map(lambda a: f"<ANSWER> {a} </Answer>"),
        st.sampled_from(_ANSWERS).map(lambda a: f"the answer is {a}"),
        st.sampled_from(_ANSWERS).map(lambda a: f"\nAnswer: {a}\n"),
    ),
    max_size=4,
).map("".join)


@st.composite
def _replies(draw) -> str:
    """A document with prose, cues and answer tags spliced in before and after its answer block."""
    text = draw(_documents)
    opening = re.search("(?ai)<answer>", text)
    before = draw(st.integers(0, opening.start() if opening else len(text)))
    text = text[:before] + draw(_splice) + text[before:]
    closings = [hit.end() for hit in re.finditer("(?ai)</answer>", text)]
    after = draw(st.integers(closings[-1] if closings else 0, len(text)))
    return text[:after] + draw(_splice) + text[after:]


class TestOneAnswerRule:
    @settings(max_examples=300, deadline=None)
    @given(
        text=_replies(),
        label=st.one_of(st.sampled_from(_ANSWERS[:4]), st.text(max_size=4).filter(str.strip)),
        paradigm=st.sampled_from(PARADIGMS),
    )
    def test_eval_is_correct_exactly_when_the_answer_reward_is_earned(self, text, label, paradigm):
        record = evaluate_item(item(1, label=label), paradigm, text)
        assert record.correct == (reward_answer(text, label) == 1.0)


class TestEvaluate:
    def test_direct_paradigm_scores(self):
        items = [item(1, label="4"), item(2, label="5")]
        client = client_for({"q1:": "4", "q2:": "9"})
        report = evaluate(items, "direct", client, CONFIG)
        assert report.per_benchmark["aiw"] == BenchmarkScore(n=2, correct=1)
        assert [r.correct for r in report.records] == [True, False]
        assert report.records[0].candidate == "4"

    def test_temperature_forced_to_zero(self):
        seen = {}

        def responder(request):
            seen["temperature"] = request.config.temperature
            seen["k"] = request.config.k
            return "4"

        client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
        evaluate([item(1)], "direct", client, CONFIG)
        assert seen == {"temperature": 0.0, "k": 1}

    def test_self_graph_records_sizes(self):
        client = client_for({"q1:": graph_doc("t", "4")})
        report = evaluate([item(1)], "self-graph", client, CONFIG)
        record = report.records[0]
        assert record.correct is True
        assert (record.node_count, record.edge_count) == (3, 2)

    def test_transport_failure_is_a_record(self):
        def responder(request):
            if "q1:" in request.user_prompt:
                raise ProtocolError("boom")
            return "4"

        client = ChatClient(MockBackend(responder=responder), sleep=lambda _: None)
        report = evaluate([item(1), item(2)], "direct", client, CONFIG)
        first, second = report.records
        assert first.correct is False
        assert first.error == "boom"
        assert first.candidate is None
        assert second.correct is True
        assert report.per_benchmark["aiw"] == BenchmarkScore(n=2, correct=1)

    def test_overall_is_unweighted_mean(self):
        items = [
            item(1, benchmark="aiw", label="4"),
            item(2, benchmark="aiw", label="4"),
            item(3, benchmark="logiqa", label="A"),
            item(4, benchmark="logiqa", label="B"),
        ]
        client = client_for({"q1:": "4", "q2:": "4", "q3:": "A", "q4:": "C"})
        report = evaluate(items, "direct", client, CONFIG)
        assert percent(report.per_benchmark["aiw"].accuracy) == "100.00"
        assert percent(report.per_benchmark["logiqa"].accuracy) == "50.00"
        assert percent(report.overall_accuracy) == "75.00"

    def test_duplicate_ids_rejected(self):
        items = [item(1), item(1)]
        with pytest.raises(ValueError, match="^item id 'aiw-1' appears more than once$"):
            evaluate(items, "direct", client_for({}), CONFIG)

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError, match="paradigm"):
            evaluate([item(1)], "tree", client_for({}), CONFIG)

    def test_check_paradigm_accepts_each_paradigm_and_names_the_setting(self):
        for paradigm in PARADIGMS:
            check_paradigm("mode", paradigm)
        message = f"mode must be one of {PARADIGMS}, got 'tree'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_paradigm("mode", "tree")

    def test_serial_and_parallel_agree(self, tmp_path):
        items = [item(n) for n in range(1, 6)]
        replies = {f"q{n}:": "4" for n in range(1, 6)}
        written = {}
        for concurrency in (1, 8):
            client = ChatClient(MockBackend(replies), sleep=lambda _: None, concurrency=concurrency)
            report = evaluate(items, "direct", client, CONFIG)
            paths = write_report(report, tmp_path / str(concurrency))
            written[concurrency] = {name: path.read_bytes() for name, path in paths.items()}
        assert written[1] == written[8]


class TestReports:
    def make_report(self) -> EvalReport:
        records = [
            ItemRecord("a-1", "aiw", "direct", "4", "4", True),
            ItemRecord("l-1", "logiqa", "direct", "A", "B", False),
        ]
        return EvalReport(
            paradigm="direct",
            model="mock-eval",
            per_benchmark={
                "aiw": BenchmarkScore(n=20, correct=13),
                "logiqa": BenchmarkScore(n=2, correct=1),
            },
            records=records,
        )

    def test_percent_formatting(self):
        assert percent(BenchmarkScore(20, 13).accuracy) == "65.00"
        assert percent(0.0) == "0.00"
        assert percent(1.0) == "100.00"

    def test_table_layout(self):
        table = render_table(self.make_report())
        assert table == (
            "paradigm: direct\n"
            "model: mock-eval\n"
            "\n"
            "benchmark   n  correct  accuracy\n"
            "---------  --  -------  --------\n"
            "aiw        20       13     65.00\n"
            "logiqa      2        1     50.00\n"
            "overall     -        -     57.50\n"
        )

    def test_write_report_files(self, tmp_path):
        report = self.make_report()
        paths = write_report(report, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "records.jsonl",
            "report.json",
            "report.txt",
        ]
        data = json.loads(paths["json"].read_text())
        assert data["overall_accuracy_percent"] == "57.50"
        assert data["per_benchmark"]["aiw"]["accuracy_percent"] == "65.00"
        lines = paths["records"].read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["item_id"] == "a-1"
        for path in paths.values():
            text = path.read_text().lower()
            assert "timestamp" not in text
            assert "latency" not in text

    def test_writing_holds_one_record_at_a_time(self, tmp_path):
        report = self.make_report()
        report.records = report.records * 1000
        paths, peak = traced_peak(lambda: write_report(report, tmp_path))
        assert len(paths["records"].read_text().splitlines()) == 2000
        assert peak < paths["records"].stat().st_size

    def test_byte_determinism(self, tmp_path):
        items = [item(n) for n in range(1, 8)]
        replies = {f"q{n}:": ("4" if n % 2 else "5") for n in range(1, 8)}
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_report(evaluate(items, "direct", client_for(replies), CONFIG), out_a)
        write_report(evaluate(items, "direct", client_for(replies), CONFIG), out_b)
        for name in ("report.txt", "report.json", "records.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
