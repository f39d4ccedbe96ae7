from __future__ import annotations

import json

import pytest

from graphreason.bench import load_logiqa
from graphreason.client import (
    ChatClient,
    MockBackend,
    ResponseCache,
    SamplingConfig,
    TrajectorySamples,
)
from graphreason.codec import STRICT, parse
from graphreason.pipeline import (
    DISCARD_ALL_CANDIDATES_FAILED,
    DISCARD_ANSWER_MISMATCH,
    DISCARD_EDGELESS_MERGE,
    DISCARD_PARSE_FAILURE,
    DISCARD_UNRENDERABLE,
    BuildReport,
    DiscardRecord,
    PipelineError,
    Provenance,
    SourceFormatError,
    SourceQA,
    TrainingInstance,
    build_dataset,
    build_instance,
    parse_candidates,
    read_sources,
    split_instances,
    write_dataset,
)


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
        with pytest.raises(SourceFormatError, match=r"src\.jsonl:2"):
            read_sources(path)

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "ok"}\n')
        with pytest.raises(SourceFormatError, match="label or answer"):
            read_sources(path)

    def test_blank_question_rejected(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"question": "  ", "label": "1"}\n')
        with pytest.raises(SourceFormatError, match=r"src\.jsonl:1"):
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
        kept = parse_candidates(texts)
        assert [idx for _, idx in kept] == [0, 1]
        assert [out.answer for out, _ in kept] == ["1", "2"]

    def test_lenient_fallback_logged(self, caplog):
        texts = ["Sure, here you go:\n" + chain_doc("a", "1")]
        with caplog.at_level("WARNING"):
            kept = parse_candidates(texts)
        assert len(kept) == 1
        assert "lenient" in caplog.text

    def test_unparseable_and_missing_skipped(self):
        texts = [None, "no structure at all", chain_doc("a", "1")]
        kept = parse_candidates(texts)
        assert [idx for _, idx in kept] == [2]


ITEM = SourceQA("q1: how many?", "4", "q1")


def drawn(*texts: str) -> TrajectorySamples:
    return TrajectorySamples(list(texts), {})


def build_one(samples: TrajectorySamples, merge_mode: str = "deterministic", replies=None):
    """build_instance on ITEM; ``replies`` script the integration sends of the LLM modes."""
    return build_instance(ITEM, samples, client_for(replies or {}), CONFIG, merge_mode)


INTEGRATION = "Candidate reasoning graphs:"


class TestBuildInstance:
    def test_retained_happy_path(self):
        result = build_one(drawn(chain_doc("a", "4"), chain_doc("b", "4"), chain_doc("c", "5")))
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
        result = build_one(drawn(chain_doc("a", "7")))
        assert result == DiscardRecord(
            "q1", DISCARD_ANSWER_MISMATCH, "merged answer '7' does not match label '4'"
        )

    def test_unparseable_samples_discard(self):
        result = build_one(drawn("I cannot answer in that format.", None))
        assert result == DiscardRecord(
            "q1", DISCARD_ALL_CANDIDATES_FAILED, "no sample parsed as a reasoning template"
        )

    def test_transport_failure_discard(self):
        samples = TrajectorySamples([None, None], {0: "down", 1: "timed out"})
        assert build_one(samples) == DiscardRecord(
            "q1", DISCARD_ALL_CANDIDATES_FAILED, "all 2 samples failed: down; timed out"
        )

    def test_llm_mode_failure_is_parse_failure(self):
        replies = {INTEGRATION: "still not a template"}
        result = build_one(drawn(chain_doc("a", "4")), "llm", replies)
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_PARSE_FAILURE

    def test_llm_mode_success(self):
        replies = {INTEGRATION: chain_doc("merged", "4")}
        result = build_one(drawn(chain_doc("a", "4")), "llm", replies)
        assert isinstance(result, TrainingInstance)
        assert result.provenance.merge_mode == "llm"
        assert result.provenance.fell_back is False
        assert "merged" in result.graph_text

    def test_fallback_mode_flags_provenance(self):
        replies = {INTEGRATION: "still not a template"}
        result = build_one(drawn(chain_doc("a", "4")), "llm-with-fallback", replies)
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
        # mode to the LLM merge.
        client = client_for({}, default=chain_doc("merged", "4"))
        samples = drawn(chain_doc("a", "4"))
        with pytest.raises(ValueError, match="merge_mode must be one of .*got 'vote'"):
            build_instance(ITEM, samples, client if with_client else None, CONFIG, "vote")
        assert client.backend.calls == 0

    def test_edgeless_merge_is_discarded(self):
        # The majority {a -> b, b -> a, b -> a} loses a -> b to the cycle
        # break, and conclusion b (candidate 0's sink) keeps no edge.
        result = build_one(drawn(*EDGELESS_REPLIES))
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_EDGELESS_MERGE
        assert "'b'" in result.detail

    def test_edgeless_fallback_merge_is_discarded(self):
        replies = {INTEGRATION: "not a template"}
        result = build_one(drawn(*EDGELESS_REPLIES), "llm-with-fallback", replies)
        assert isinstance(result, DiscardRecord)
        assert result.reason == DISCARD_EDGELESS_MERGE


EDGELESS_REPLIES = [doc([("a", "b")], "4"), doc([("b", "a")], "4"), doc([("b", "a")], "4")]


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

    def test_duplicate_source_ids_rejected(self):
        items = [SourceQA("q one", "1", "dup"), SourceQA("q two", "2", "dup")]
        with pytest.raises(PipelineError, match="unique"):
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
