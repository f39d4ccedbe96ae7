from __future__ import annotations

import json
import sqlite3
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import NOT_UTF8_TEXT, FailingCache, corrupt_store, finish, traced_peak
from graphreason.answers import answers_match
from graphreason.bench import (
    PARADIGMS,
    BenchmarkItem,
    SchemaError,
    evaluate,
    extract_candidate,
    load_logiqa,
    write_report,
)
from graphreason.client import (
    ChatClient,
    ClientError,
    MockBackend,
    ResponseCache,
    SamplingConfig,
    TransientError,
    cache_key,
)
from graphreason.codec import LENIENT, STRICT, StructuredOutput, TemplateParseError, parse, render
from graphreason.graph import sinks
from graphreason.merge import MERGE_MODES
from graphreason.pipeline import (
    DISCARD_ALL_CANDIDATES_FAILED,
    DISCARD_ANSWER_MISMATCH,
    DISCARD_EDGELESS_MERGE,
    DISCARD_PARSE_FAILURE,
    DISCARD_UNRENDERABLE,
    BuildReport,
    BuildResult,
    DiscardRecord,
    PipelineError,
    Provenance,
    SourceQA,
    TrainingInstance,
    build_dataset,
    build_instance,
    parse_candidates,
    read_sources,
    split_instances,
    write_dataset,
)
from graphreason.prompts import INTEGRATION_PROMPT, REPAIR_SUFFIX
import test_golden
from test_codec import _documents, _near_template


def doc(steps: list[tuple[str, str]], answer: str) -> str:
    lines = ["<reasoning>"]
    for parent, child in steps:
        lines.append(f"<step> {parent} → {child} </step>")
    lines.append("</reasoning>")
    lines.append(f"<answer> {answer} </answer>")
    return "\n".join(lines)


def chain_doc(tag: str, answer: str) -> str:
    return doc([(f"{tag} start", f"{tag} middle"), (f"{tag} middle", f"{tag} end")], answer)


CONFIG = SamplingConfig(model_name="mock-teacher", k=3)


def client_for(replies, **kw) -> ChatClient:
    return ChatClient(MockBackend(replies, **kw), sleep=lambda _: None)


class TestReadSources:
    def test_reads_records(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text(
            '{"question": "q one", "label": "1", "id": "a"}\n'
            "\n"
            '{"question": "q two", "answer": "2"}\n'
        )
        items = read_sources(path)
        assert [i.source_id for i in items] == ["a", "item-3"]
        assert items[1].label == "2"

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "ok", "label": "1"}\n{broken\n')
        with pytest.raises(SchemaError, match=r"src\.jsonl:2"):
            read_sources(path)

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "ok"}\n')
        with pytest.raises(SchemaError, match=r"src\.jsonl:1: missing field 'label'$"):
            read_sources(path)

    def test_blank_question_rejected(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "  ", "label": "1"}\n')
        with pytest.raises(SchemaError, match=r"src\.jsonl:1"):
            read_sources(path)

    @pytest.mark.parametrize("record,field", [
        ('{"question": null, "label": "4"}', "question"),
        ('{"question": 7, "label": "4"}', "question"),
        ('{"question": ["q"], "label": "4"}', "question"),
        ('{"question": "q", "label": true}', "label"),
        ('{"question": "q", "label": {"value": 4}}', "label"),
        ('{"question": "q", "answer": [4]}', "answer"),
    ])
    def test_mistyped_field_names_line_and_field(self, tmp_path, record, field):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "ok", "label": "1"}\n' + record + "\n")
        with pytest.raises(SchemaError, match=rf"src\.jsonl:2: field '{field}' must be"):
            read_sources(path)

    def test_number_label_is_read_as_text(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "q", "label": 4}\n{"question": "r", "answer": 2.5}\n')
        assert [item.label for item in read_sources(path)] == ["4", "2.5"]

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["label", "answer"])
    def test_non_finite_label_names_line_and_field(self, tmp_path, field, number):
        # Python's json reads these three words as floats.
        path = tmp_path / "src.jsonl"
        path.write_text(f'{{"question": "ok", "label": "1"}}\n{{"question": "q", "{field}": {number}}}\n')
        message = rf"src\.jsonl:2: field '{field}' must be a string or a finite number$"
        with pytest.raises(SchemaError, match=message):
            read_sources(path)


@pytest.mark.parametrize(
    "body,load,attr,ids",
    [
        ('{"question": "q", "label": "1", "id": null}\n' * 2, read_sources, "source_id", ["item-1", "item-2"]),
        (
            '{"text": "t", "question": "q", "options": ["a", "b"], "answer": 0, "id": null}\n' * 2,
            load_logiqa,
            "item_id",
            ["logiqa-1", "logiqa-2"],
        ),
    ],
    ids=["read_sources", "load_logiqa"],
)
def test_null_id_takes_the_default(tmp_path, body, load, attr, ids):
    path = tmp_path / "records.jsonl"
    path.write_text(body)
    assert [getattr(item, attr) for item in load(path)] == ids


class TestParseCandidates:
    def test_strict_documents_pass(self):
        texts = [chain_doc("a", "1"), chain_doc("b", "2")]
        kept, _ = parse_candidates(texts)
        assert [idx for _, idx in kept] == [0, 1]
        assert [out.answer for out, _ in kept] == ["1", "2"]

    def test_lenient_fallback_counted_not_logged(self, caplog):
        texts = ["Sure, here you go:\n" + chain_doc("a", "1")]
        with caplog.at_level("WARNING"):
            kept, lenient_only = parse_candidates(texts)
        assert len(kept) == 1
        assert lenient_only == (0,)
        assert not [r for r in caplog.records if r.name == "graphreason.pipeline"]

    def test_unparseable_and_missing_skipped(self):
        texts = [None, "no structure at all", chain_doc("a", "1"), ClientError("down")]
        kept, _ = parse_candidates(texts)
        assert [idx for _, idx in kept] == [2]


def _strict_then_lenient_kept(texts: list[str | None]) -> list[tuple[StructuredOutput, int]]:
    """Frozen copy of the parse_candidates loop as it stood when it returned only the kept list."""
    kept = []
    for index, text in enumerate(texts):
        if text is None:
            continue
        try:
            kept.append((parse(text, STRICT), index))
            continue
        except TemplateParseError:
            pass
        try:
            kept.append((parse(text, LENIENT), index))
        except TemplateParseError:
            pass
    return kept


def _parses(text: str, mode: str) -> bool:
    try:
        parse(text, mode)
    except TemplateParseError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.one_of(st.none(), _documents), min_size=1, max_size=6))
def test_parse_candidates_keeps_the_same_samples_and_names_the_lenient_only_ones(texts):
    kept, lenient_only = parse_candidates(texts)
    assert kept == _strict_then_lenient_kept(texts)
    assert lenient_only == tuple(
        i for i, text in enumerate(texts)
        if text is not None and not _parses(text, STRICT) and _parses(text, LENIENT)
    )


ITEM = SourceQA("q1: how many?", "4", "q1")


def build_one(samples: list, merge_mode: str = "deterministic", replies=None):
    """build_instance on ITEM; ``replies`` script the integration sends of the LLM modes."""
    return finish(build_instance(ITEM, samples, CONFIG, merge_mode), client_for(replies or {}))


INTEGRATION = "Candidate reasoning graphs:"


class TestBuildInstance:
    def test_retained_happy_path(self):
        result = build_one([chain_doc("a", "4"), chain_doc("b", "4"), chain_doc("c", "5")])
        assert isinstance(result, TrainingInstance)
        assert result.label == "4"
        parsed = parse(result.graph_text, STRICT)
        assert parsed.answer == "4"
        prov = result.provenance
        assert prov.source_id == "q1"
        assert prov.teacher_model == "mock-teacher"
        assert prov.k_used == 3
        assert prov.contributing_indices == (0, 1)
        assert prov.merge_mode == "deterministic"
        assert prov.fell_back is False

    def test_answer_mismatch_discard(self):
        result = build_one([chain_doc("a", "7")])
        assert result == DiscardRecord(
            "q1", DISCARD_ANSWER_MISMATCH, "merged answer '7' does not match label '4'"
        )

    def test_unparseable_samples_discard(self):
        result = build_one(["I cannot answer in that format.", ClientError("down")])
        assert result == DiscardRecord(
            "q1", DISCARD_ALL_CANDIDATES_FAILED, "no sample parsed as a reasoning template"
        )

    def test_transport_failure_discard(self):
        samples = [ClientError("down"), TransientError("timed out")]
        assert build_one(samples) == DiscardRecord(
            "q1", DISCARD_ALL_CANDIDATES_FAILED, "all 2 samples failed: down; timed out"
        )

    def test_llm_mode_failure_is_parse_failure(self):
        replies = {INTEGRATION: "still not a template"}
        result = build_one([chain_doc("a", "4")], "llm", replies)
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_PARSE_FAILURE

    def test_llm_mode_success(self):
        replies = {INTEGRATION: chain_doc("merged", "4")}
        result = build_one([chain_doc("a", "4")], "llm", replies)
        assert isinstance(result, TrainingInstance)
        assert result.provenance.merge_mode == "llm"
        assert result.provenance.fell_back is False
        assert "merged" in result.graph_text

    def test_fallback_mode_flags_provenance(self):
        replies = {INTEGRATION: "still not a template"}
        result = build_one([chain_doc("a", "4")], "llm-with-fallback", replies)
        assert isinstance(result, TrainingInstance)
        assert result.provenance.merge_mode == "llm-with-fallback"
        assert result.provenance.fell_back is True

    def test_unknown_merge_mode(self):
        # Checked once per build, before the first send.
        client = client_for({}, default=chain_doc("a", "4"))
        items = [SourceQA(f"q{i}: how many?", "4", f"q{i}") for i in range(20)]
        with pytest.raises(ValueError, match="merge_mode"):
            build_dataset(items, client, CONFIG, merge_mode="vote")
        assert client.backend.calls == 0

    @pytest.mark.parametrize("with_client", [True, False])
    def test_unknown_merge_mode_of_one_item_sends_nothing(self, with_client):
        # build_instance is public, so its merge must not route an unknown
        # mode to the LLM merge, whether or not a client drives the item.
        client = client_for({}, default=chain_doc("merged", "4"))
        samples = [chain_doc("a", "4")]
        with pytest.raises(ValueError, match="merge_mode must be one of .*got 'vote'"):
            outcome = build_instance(ITEM, samples, CONFIG, "vote")
            if with_client:
                finish(outcome, client)
        assert client.backend.calls == 0

    def test_edgeless_merge_is_discarded(self):
        # The majority {a -> b, b -> a, b -> a} loses a -> b to the cycle
        # break, and conclusion b (candidate 0's sink) keeps no edge.
        result = build_one(EDGELESS_REPLIES)
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_EDGELESS_MERGE
        assert "'b'" in result.detail

    def test_edgeless_fallback_merge_is_discarded(self):
        replies = {INTEGRATION: "not a template"}
        result = build_one(EDGELESS_REPLIES, "llm-with-fallback", replies)
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_EDGELESS_MERGE


EDGELESS_REPLIES = [doc([("a", "b")], "4"), doc([("b", "a")], "4"), doc([("b", "a")], "4")]


@pytest.mark.parametrize(
    "label,samples,merge_mode,kind",
    [
        ("4", [chain_doc(t, "4") for t in "abc"], "deterministic", "retained"),
        ("4", [chain_doc(t, "7") for t in "abc"], "deterministic", DISCARD_ANSWER_MISMATCH),
        ("4", EDGELESS_REPLIES, "deterministic", DISCARD_EDGELESS_MERGE),
        ("x < y", [chain_doc(t, "x < y") for t in "abc"], "deterministic", DISCARD_UNRENDERABLE),
        ("4", [chain_doc(t, "4") for t in "abc"], "llm", DISCARD_PARSE_FAILURE),
    ],
    ids=["retained", "answer-mismatch", "edgeless-merge", "unrenderable", "parse-failure"],
)
def test_every_outcome_counts_its_lenient_only_sample(label, samples, merge_mode, kind):
    # Exactly one sample is wrapped in prose, so it parses only leniently.
    samples = ["Sure, here you go:\n" + samples[0], *samples[1:]]
    replies = {INTEGRATION: "still not a template", "q1:": samples}
    result = build_dataset([SourceQA("q1: which?", label, "q1")], client_for(replies), CONFIG,
                           merge_mode=merge_mode)
    [outcome] = [*result.instances, *result.discards]
    assert (outcome.reason if isinstance(outcome, DiscardRecord) else "retained") == kind
    assert outcome.lenient_only == 1
    assert result.lenient_only == 1


def make_instances(n: int) -> list[TrainingInstance]:
    prov = Provenance("s", "m", 3, (0,), "deterministic")
    text = chain_doc("a", "4")
    return [TrainingInstance(f"q{i}", text, "4", prov) for i in range(n)]


class TestSplit:
    def test_ten_items_split_nine_one(self):
        train, valid = split_instances(make_instances(10), seed=42)
        assert (len(train), len(valid)) == (9, 1)

    def test_deterministic_for_seed(self):
        items = make_instances(40)
        first = split_instances(items, seed=42)
        second = split_instances(items, seed=42)
        assert [i.question for i in first[0]] == [i.question for i in second[0]]
        assert [i.question for i in first[1]] == [i.question for i in second[1]]

    def test_seed_changes_membership(self):
        items = make_instances(40)
        _, valid_a = split_instances(items, seed=1)
        _, valid_b = split_instances(items, seed=2)
        assert {i.question for i in valid_a} != {i.question for i in valid_b}

    def test_partition_preserves_order(self):
        items = make_instances(25)
        train, valid = split_instances(items, seed=7)
        questions = [i.question for i in items]
        assert sorted(train + valid, key=lambda i: questions.index(i.question)) == list(items)
        train_pos = [questions.index(i.question) for i in train]
        valid_pos = [questions.index(i.question) for i in valid]
        assert train_pos == sorted(train_pos)
        assert valid_pos == sorted(valid_pos)
        assert set(train_pos).isdisjoint(valid_pos)

    def test_small_corpus_has_no_valid_side(self):
        train, valid = split_instances(make_instances(9), seed=42)
        assert (len(train), len(valid)) == (9, 0)


def corpus_replies() -> dict:
    return {
        "q1:": [chain_doc("a", "4"), chain_doc("b", "4"), chain_doc("c", "5")],
        "q2:": chain_doc("d", "7"),
        "q3:": "prose only, no template",
        "q4:": ["Sure:\n" + chain_doc("e", "9"), chain_doc("f", "9"), chain_doc("g", "9")],
    }


def corpus_items() -> list[SourceQA]:
    return [
        SourceQA("q1: first", "4", "q1"),
        SourceQA("q2: second", "8", "q2"),
        SourceQA("q3: third", "1", "q3"),
        SourceQA("q4: fourth", "9", "q4"),
    ]


class TestBuildDataset:
    @pytest.mark.parametrize(
        "reply", [chain_doc("tail", "4") + " \ud800", "no template \ud800"],
        ids=["after-the-answer", "unparseable"],
    )
    def test_lone_surrogate_reply_builds_the_same_with_a_cache(self, tmp_path, reply):
        items = [SourceQA("What is 2 + 2?", "4", "q1")]
        runs = [
            ("plain", MockBackend(default=reply), None),
            ("cold", MockBackend(default=reply), ResponseCache(tmp_path / "cache")),
            # Refuses every send: a warm rebuild must read each reply back unchanged.
            ("warm", MockBackend(), ResponseCache(tmp_path / "cache")),
        ]
        outputs = []
        for name, backend, cache in runs:
            client = ChatClient(backend, cache=cache, sleep=lambda _: None)
            paths = write_dataset(build_dataset(items, client, CONFIG), tmp_path / name)
            outputs.append({key: path.read_bytes() for key, path in paths.items()})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_a_store_whose_reads_fail_builds_the_same_as_no_store(self, tmp_path):
        error = sqlite3.DatabaseError("database disk image is malformed")
        outputs = []
        for name, cache in [("plain", None), ("broken", FailingCache(tmp_path / "cache", error, "get"))]:
            client = ChatClient(MockBackend(corpus_replies()), cache=cache, sleep=lambda _: None)
            paths = write_dataset(build_dataset(corpus_items(), client, CONFIG), tmp_path / name)
            outputs.append({key: path.read_bytes() for key, path in paths.items()})
        assert outputs[0] == outputs[1]
        assert outputs[0]["train"]

    @pytest.mark.parametrize("value", NOT_UTF8_TEXT)
    def test_a_store_of_rows_that_are_not_utf8_text_builds_the_same_as_no_store(
        self, tmp_path, value
    ):
        def build(name: str, backend: MockBackend, cache: ResponseCache | None) -> dict:
            client = ChatClient(backend, cache=cache, sleep=lambda _: None)
            paths = write_dataset(build_dataset(corpus_items(), client, CONFIG), tmp_path / name)
            return {key: path.read_bytes() for key, path in paths.items()}

        store = tmp_path / "cache"
        plain = build("plain", MockBackend(corpus_replies()), None)
        build("cold", MockBackend(corpus_replies()), ResponseCache(store))
        assert corrupt_store(store, value) > 0
        assert build("corrupt", MockBackend(corpus_replies()), ResponseCache(store)) == plain
        # The fresh completions replaced the rows: a rebuild that refuses every send reads them.
        assert build("warm", MockBackend(), ResponseCache(store)) == plain

    def test_lone_surrogate_in_a_kept_step_is_written_escaped(self, tmp_path):
        items = [SourceQA("What is 2 + 2?", "4", "q1")]
        reply = doc([("x\ud800 start", "x end")], "4")
        result = build_dataset(items, client_for({}, default=reply), CONFIG)
        paths = write_dataset(result, tmp_path)
        raw = paths["train"].read_bytes()
        assert b"\\ud800" in raw
        row = json.loads(raw.decode("utf-8"))
        assert row["graph_reasoning"] == result.train[0].graph_text
        assert "x\ud800 start" in row["graph_reasoning"]

    def test_accounting_and_order(self):
        result = build_dataset(corpus_items(), client_for(corpus_replies()), CONFIG)
        assert [i.provenance.source_id for i in result.instances] == ["q1", "q4"]
        assert [d.source_id for d in result.discards] == ["q2", "q3"]
        report = result.report
        assert report.total_in == 4
        assert report.retained == 2
        assert report.discarded_by_reason == {
            DISCARD_ANSWER_MISMATCH: 1,
            DISCARD_ALL_CANDIDATES_FAILED: 1,
        }
        assert report.split_sizes == {"train": 2, "valid": 0}

    def test_edgeless_merge_keeps_the_rest_of_the_build(self, tmp_path):
        items = corpus_items() + [SourceQA("q5: fifth", "4", "q5")]
        replies = {**corpus_replies(), "q5:": EDGELESS_REPLIES}
        result = build_dataset(items, client_for(replies), CONFIG)
        assert [i.provenance.source_id for i in result.instances] == ["q1", "q4"]
        assert result.report.discarded_by_reason == {
            DISCARD_ANSWER_MISMATCH: 1,
            DISCARD_ALL_CANDIDATES_FAILED: 1,
            DISCARD_EDGELESS_MERGE: 1,
        }
        report = json.loads(write_dataset(result, tmp_path)["report"].read_text())
        assert {"source_id": "q5", "reason": "edgeless-merge"}.items() <= report["discards"][-1].items()

    def test_unrenderable_answer_keeps_the_rest_of_the_build(self):
        # "<answer> x < y </answer>" parses strictly, but render refuses
        # angle brackets in the answer.
        items = [SourceQA("q1: which is smaller?", "x < y", "q1"), SourceQA("q2: sum?", "4", "q2")]
        replies = {"q1:": chain_doc("a", "x < y"), "q2:": chain_doc("b", "4")}
        result = build_dataset(items, client_for(replies), CONFIG)
        assert [i.provenance.source_id for i in result.instances] == ["q2"]
        assert result.discards == [
            DiscardRecord("q1", DISCARD_UNRENDERABLE, "answer text may not contain angle brackets")
        ]
        assert result.report.discarded_by_reason == {DISCARD_UNRENDERABLE: 1}

    @pytest.mark.parametrize("mode", ["llm", "llm-with-fallback"])
    def test_unquotable_candidate_is_left_out_of_the_integration(self, mode):
        # A minority candidate's answer holds an angle bracket, so the
        # integration prompt quotes only the other one.
        items = [SourceQA("q1: which?", "4", "q1"), SourceQA("q2: sum?", "4", "q2")]
        replies = {
            "Candidate reasoning graphs:": chain_doc("merged", "4"),
            "q1:": [chain_doc("a", "4"), chain_doc("b", "x < y")],
            "q2:": chain_doc("c", "4"),
        }
        result = build_dataset(items, client_for(replies), CONFIG, merge_mode=mode)
        assert result.discards == []
        first = result.instances[0].provenance
        assert (first.source_id, first.contributing_indices) == ("q1", (0, 2))
        assert (first.merge_mode, first.fell_back) == ("llm", False)

    @pytest.mark.parametrize(
        "mode,reason", [("llm", DISCARD_PARSE_FAILURE), ("llm-with-fallback", DISCARD_UNRENDERABLE)]
    )
    def test_no_quotable_candidate_keeps_the_rest_of_the_build(self, mode, reason):
        # Plain llm gives up; the fallback merges deterministically, and
        # that merge's answer cannot be rendered either.
        items = [SourceQA("q1: which?", "x < y", "q1"), SourceQA("q2: sum?", "4", "q2")]
        replies = {
            "Candidate reasoning graphs:": chain_doc("merged", "4"),
            "q1:": chain_doc("a", "x < y"),
            "q2:": chain_doc("c", "4"),
        }
        result = build_dataset(items, client_for(replies), CONFIG, merge_mode=mode)
        assert [i.provenance.source_id for i in result.instances] == ["q2"]
        assert [(d.source_id, d.reason) for d in result.discards] == [("q1", reason)]

    def test_serial_and_parallel_agree(self, tmp_path):
        written = {}
        for concurrency in (1, 8):
            client = ChatClient(
                MockBackend(corpus_replies()), sleep=lambda _: None, concurrency=concurrency
            )
            result = build_dataset(corpus_items(), client, CONFIG)
            paths = write_dataset(result, tmp_path / str(concurrency))
            written[concurrency] = {name: path.read_bytes() for name, path in paths.items()}
        assert written[1] == written[8]

    @pytest.mark.parametrize("merge_mode", MERGE_MODES)
    def test_golden_fixture_counts_its_lenient_only_samples(self, merge_mode):
        sources = read_sources(test_golden.GOLDEN / "sources.jsonl")
        with test_golden.client() as client:
            result = build_dataset(sources, client, test_golden.CONFIG, merge_mode=merge_mode)
        assert result.lenient_only == 3

    def test_duplicate_source_ids_rejected(self):
        items = [SourceQA("q one", "1", "dup"), SourceQA("q two", "2", "dup")]
        with pytest.raises(PipelineError, match="^source id 'dup' appears more than once$"):
            build_dataset(items, client_for({}), CONFIG)

    def test_empty_input(self):
        result = build_dataset([], client_for({}), CONFIG)
        assert result.report.total_in == 0
        assert result.report.split_sizes == {"train": 0, "valid": 0}


class TestWriteDataset:
    def test_files_round_trip(self, tmp_path):
        result = build_dataset(corpus_items(), client_for(corpus_replies()), CONFIG)
        paths = write_dataset(result, tmp_path / "out")
        for name in ("train", "valid"):
            rows = [json.loads(line) for line in paths[name].read_text().splitlines()]
            assert rows == [instance.to_dict() for instance in getattr(result, name)]
        report = json.loads(paths["report"].read_text())
        assert report["total_in"] == 4
        assert report["split_sizes"] == {"train": 2, "valid": 0}
        assert [d["source_id"] for d in report["discards"]] == ["q2", "q3"]

    def test_rows_carry_expected_fields(self, tmp_path):
        result = build_dataset(corpus_items(), client_for(corpus_replies()), CONFIG)
        paths = write_dataset(result, tmp_path / "out")
        row = json.loads(paths["train"].read_text().splitlines()[0])
        assert set(row) == {"question", "graph_reasoning", "label", "provenance"}
        parse(row["graph_reasoning"], STRICT)

    def test_writing_holds_one_row_at_a_time(self, tmp_path):
        built = build_dataset(corpus_items(), client_for(corpus_replies()), CONFIG)
        rows = built.instances * 1000
        paths, peak = traced_peak(
            lambda: write_dataset(BuildResult(rows, built.discards, rows, []), tmp_path)
        )
        assert len(paths["train"].read_text().splitlines()) == 2000
        assert peak < paths["train"].stat().st_size

    def test_no_timestamps_and_no_leftover_tmp(self, tmp_path):
        result = build_dataset(corpus_items(), client_for(corpus_replies()), CONFIG)
        out = tmp_path / "out"
        write_dataset(result, out)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["report.json", "train.jsonl", "valid.jsonl"]
        for p in out.iterdir():
            text = p.read_text().lower()
            assert "timestamp" not in text
            assert "latency" not in text


class TestBuildReport:
    def test_accounting_identity_enforced(self):
        with pytest.raises(ValueError, match="accounting"):
            BuildReport(10, 8, {"answer-mismatch": 1}, {})

    def test_split_sum_enforced(self):
        with pytest.raises(ValueError, match="split"):
            BuildReport(3, 3, {}, {"train": 1, "valid": 1})

    def test_discard_reason_vocabulary(self):
        with pytest.raises(ValueError, match="discard reason"):
            DiscardRecord("s", "because")


# A reply, or None for a request whose transport fails. Template-shaped
# replies are drawn twice as often as _documents alone draws them, so that
# more items reach the merge.
_replies = st.one_of(st.none(), _documents, _near_template())
# The end of the repair prompt, which no first integration prompt has.
_REPAIR_END = REPAIR_SUFFIX.rsplit("}", 1)[1]


def _label(texts: list[str | None]) -> str:
    """The answer of the first text that parses, so that some items can be kept."""
    for text in filter(None, texts):
        try:
            answer = parse(text, LENIENT).answer
        except TemplateParseError:
            continue
        if answer.strip():
            return answer
    return "none"


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 4),
    merge_mode=st.sampled_from(["deterministic", "llm", "llm-with-fallback"]),
    scripts=st.lists(
        st.tuples(
            st.lists(_replies, min_size=4, max_size=4), _replies, _replies, st.sets(st.integers(0, 5))
        ),
        min_size=1, max_size=5,
    ),
)
def test_whole_build_is_reproducible_and_keeps_only_sound_rows(k, merge_mode, scripts):
    """Any teacher replies: equal bytes at any concurrency and cache state; every row sound.

    Each item scripts its k sample replies, its integration reply, its
    repair reply and the requests whose first send fails with a 429 and
    whose retry succeeds (sample indices 0-3, then 4 for the integration
    and 5 for the repair); the question names the item.
    """
    config = SamplingConfig(model_name="mock-teacher", k=k)
    llm = merge_mode != "deterministic"
    items = [
        SourceQA(f"item {i}", _label([integration, repair] * llm + samples[:k]), f"s{i}")
        for i, (samples, integration, repair, _) in enumerate(scripts)
    ]

    def responder(scripted_429s: bool):
        sent: set[str] = set()
        lock = threading.Lock()

        def respond(request):
            question = request.user_prompt.split("\n")[1]
            samples, integration, repair, flaky = scripts[int(question.removeprefix("item "))]
            if request.system_prompt != INTEGRATION_PROMPT.system:
                slot, reply = request.sample_index, samples[request.sample_index]
            elif request.user_prompt.endswith(_REPAIR_END):
                slot, reply = 5, repair
            else:
                slot, reply = 4, integration
            key = cache_key(request)
            with lock:
                first = key not in sent
                sent.add(key)
            if reply is None:
                raise TransientError("scripted transport failure")
            if scripted_429s and slot in flaky and first:
                raise TransientError("scripted 429", status=429)
            return reply

        return respond

    written, lenient_only = [], []
    with tempfile.TemporaryDirectory() as tmp:
        # Uncached at concurrency 1 with no 429s, then a cold and a warm cache
        # at concurrency 3 with them: each retry must give the same bytes.
        runs = [(1, False, False), (3, True, True), (3, True, True)]
        for run, (concurrency, cached, scripted_429s) in enumerate(runs):
            cache = ResponseCache(Path(tmp, "cache")) if cached else None
            backend = MockBackend(responder=responder(scripted_429s))
            with ChatClient(
                backend, cache=cache, concurrency=concurrency, max_attempts=2, sleep=lambda _: None
            ) as client:
                result = build_dataset(items, client, config, merge_mode=merge_mode)
            paths = write_dataset(result, Path(tmp, str(run)))
            written.append({name: path.read_bytes() for name, path in paths.items()})
            lenient_only.append(result.lenient_only)
    assert written[0] == written[1] == written[2]
    assert lenient_only[0] == lenient_only[1] == lenient_only[2]

    for line in (written[0]["train"] + written[0]["valid"]).splitlines():
        row = json.loads(line)
        output = parse(row["graph_reasoning"], STRICT)
        assert render(output) == row["graph_reasoning"]
        assert len(sinks(output.graph)) == 1
        assert answers_match(output.answer, row["label"])


@settings(max_examples=25, deadline=None)
@given(
    paradigm=st.sampled_from(PARADIGMS),
    scripts=st.lists(st.tuples(_replies, st.booleans(), st.booleans()), min_size=1, max_size=6),
)
def test_evaluate_is_reproducible_and_scores_each_reply_by_its_candidate(paradigm, scripts):
    """Any replies: equal report bytes at any concurrency and cache state; each record sound.

    Each item scripts its reply (None for a request whose transport
    fails), whether its label is the reply's own candidate, so that some
    items are scored correct, and whether its first send fails with a
    429 whose retry succeeds; the question names the item.
    """

    def label(reply: str | None, matching: bool) -> str:
        candidate = extract_candidate(reply, paradigm)[0] if reply is not None else None
        return candidate if matching and candidate and candidate.strip() else "none"

    items = [
        BenchmarkItem(f"item {i}", label(reply, matching), ("aiw", "logiqa")[i % 2], f"i{i}")
        for i, (reply, matching, _) in enumerate(scripts)
    ]

    def responder(scripted_429s: bool):
        sent: set[int] = set()
        lock = threading.Lock()

        def respond(request):
            index = int(request.user_prompt.split("item ", 1)[1].split()[0])
            reply, _, flaky = scripts[index]
            with lock:
                first = index not in sent
                sent.add(index)
            if reply is None:
                raise TransientError("scripted transport failure")
            if scripted_429s and flaky and first:
                raise TransientError("scripted 429", status=429)
            return reply

        return respond

    config = SamplingConfig(model_name="mock-eval")
    written, reports = [], []
    with tempfile.TemporaryDirectory() as tmp:
        # Uncached at concurrency 1 with no 429s, then a cold and a warm cache
        # at concurrency 3 with them.
        for run, (concurrency, cached) in enumerate([(1, False), (3, True), (3, True)]):
            cache = ResponseCache(Path(tmp, "cache")) if cached else None
            backend = MockBackend(responder=responder(scripted_429s=cached))
            with ChatClient(
                backend, cache=cache, concurrency=concurrency, max_attempts=2, sleep=lambda _: None
            ) as client:
                reports.append(evaluate(items, paradigm, client, config))
            paths = write_report(reports[-1], Path(tmp, str(run)))
            written.append({name: path.read_bytes() for name, path in paths.items()})
        # The warm store answers every reply that came back; only failures are sent again.
        assert backend.calls == 2 * sum(reply is None for reply, _, _ in scripts)
    assert written[0] == written[1] == written[2]

    for item, (reply, _, _), record in zip(items, scripts, reports[0].records, strict=True):
        assert record.item_id == item.item_id
        if reply is None:
            assert (record.candidate, record.correct, record.error) == (
                None, False, "gave up after 2 attempts: scripted transport failure"
            )
            continue
        candidate = extract_candidate(reply, paradigm)[0]
        assert record.candidate == candidate
        assert record.correct == (candidate is not None and answers_match(candidate, item.label))
