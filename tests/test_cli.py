from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import NOT_UTF8_TEXT, corrupt_store, run_python
from graphreason.cli import RunConfig, build_parser, main, make_client, resolve_config
from graphreason.client import (
    ChatClient,
    MockBackend,
    ProtocolError,
    SamplingConfig,
)
from graphreason.codec import STRICT, parse
from graphreason.merge import MERGE_MODES
from graphreason.pipeline import (
    DISCARD_EDGELESS_MERGE,
    DISCARD_PARSE_FAILURE,
    DISCARD_UNRENDERABLE,
    build_dataset,
    read_sources,
    trajectory_requests,
)
from graphreason.prompts import TRAJECTORY_PROMPT

FIXTURES = Path(__file__).parent / "fixtures"

GOOD_DOC = (
    "<reasoning>\n"
    "<step> collect facts → compare options </step>\n"
    "<step> compare options → settle on four </step>\n"
    "</reasoning>\n"
    "<answer> 4 </answer>"
)
# A valid template whose first step holds a lone surrogate, which has no UTF-8 form.
SURROGATE_DOC = GOOD_DOC.replace("collect facts", "x\ud800 start")
# A "\ud800" escape is valid JSON, so a sources or items file may hold a lone surrogate.
SURROGATE_QUESTION = "q1: x\ud800 how many?"


def write_mock(tmp_path: Path, replies: dict, default: str | None = None) -> Path:
    path = tmp_path / "mock.json"
    body: dict = {"replies": replies}
    if default is not None:
        body["default"] = default
    path.write_text(json.dumps(body))
    return path


def mock_args(tmp_path: Path, replies: dict, default: str | None = None) -> list[str]:
    return ["--mock", str(write_mock(tmp_path, replies, default))]


def uncached_and_cached_outputs(
    tmp_path: Path, argv: list[str], names: tuple[str, ...]
) -> dict[str, dict[str, bytes]]:
    """Run ``argv + --out <run>`` uncached, then cold and warm on one cache; read ``names``."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    outputs = {}
    for run, extra in [("uncached", []), ("cold", cache), ("warm", cache)]:
        out_dir = tmp_path / run
        assert main([*argv, "--out", str(out_dir), *extra]) == 0, run
        outputs[run] = {name: (out_dir / name).read_bytes() for name in names}
    return outputs


class TestValidate:
    def test_case_study(self, capsys):
        assert main(["validate", str(FIXTURES / "case_study.txt")]) == 0
        out = capsys.readouterr().out
        assert "9 nodes, 8 edges, 0 errors" in out

    def test_parse_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a template")
        assert main(["validate", str(bad)]) == 1
        assert "parse error: missing-reasoning-block" in capsys.readouterr().out

    def test_jsonl_records(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"graph_reasoning": GOOD_DOC}) + "\n"
            + json.dumps({"graph_reasoning": "broken"}) + "\n"
        )
        assert main(["validate", str(records)]) == 1
        out = capsys.readouterr().out
        assert f"{records}:1: 3 nodes, 2 edges, 0 errors" in out
        assert f"{records}:2: parse error" in out

    def test_lenient_flag(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Sure!\n" + GOOD_DOC)
        assert main(["validate", str(doc)]) == 1
        assert main(["validate", "--lenient", str(doc)]) == 0

    @pytest.mark.parametrize("steps, counts", [
        (["a → b", "c → d"], "4 nodes, 2 edges"),
        (["a → b", "a → c"], "3 nodes, 2 edges"),
    ], ids=["two-chains", "fork"])
    def test_several_sinks_are_the_one_warning(self, tmp_path, capsys, steps, counts):
        doc = tmp_path / "doc.txt"
        body = "".join(f"<step> {step} </step>\n" for step in steps)
        doc.write_text(f"<reasoning>\n{body}</reasoning>\n<answer> 4 </answer>\n")
        assert main(["validate", str(doc)]) == 0
        assert capsys.readouterr().out == (
            f"{doc}: {counts}, 0 errors, 1 warnings\n"
            "  warning: multiple-sinks: 2 sinks present\n"
        )

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.txt"]) == 1
        assert capsys.readouterr() == (
            "no-such-file.txt: cannot be read (No such file or directory)\n", ""
        )

    def test_a_path_that_cannot_be_read_is_one_line_and_the_rest_are_checked(
        self, tmp_path, capsys
    ):
        ok = tmp_path / "doc.txt"
        ok.write_text(GOOD_DOC)
        missing, directory = tmp_path / "missing.txt", tmp_path / "dir.jsonl"
        directory.mkdir()
        assert main(["validate", str(ok), str(missing), str(directory), str(ok)]) == 1
        assert capsys.readouterr() == (
            f"{ok}: 3 nodes, 2 edges, 0 errors\n"
            f"{missing}: cannot be read (No such file or directory)\n"
            f"{directory}: cannot be read (Is a directory)\n"
            f"{ok}: 3 nodes, 2 edges, 0 errors\n",
            "",
        )

    def test_lone_surrogate_in_a_parse_error_is_printed_escaped(self, tmp_path, capsys):
        steps = "<step> x\ud800 → b </step>\n<step> b → x\ud800 </step>"
        cycle = f"<reasoning>\n{steps}\n</reasoning>\n<answer> 4 </answer>"
        rows = tmp_path / "row.jsonl"
        rows.write_text(json.dumps({"graph_reasoning": cycle}) + "\n")
        assert main(["validate", str(rows)]) == 1
        assert "x\\ud800" in capsys.readouterr().out


class TestViz:
    def test_writes_dot(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(GOOD_DOC)
        assert main(["viz", str(doc), "--out-dir", str(tmp_path / "dots")]) == 0
        out_path = tmp_path / "dots" / "doc.dot"
        assert str(out_path) in capsys.readouterr().out
        dot = out_path.read_text()
        assert dot.startswith("digraph reasoning {")
        assert dot.count(" -> ") == 2
        assert "answer: 4" in dot

    def test_jsonl_names_by_line(self, tmp_path):
        records = tmp_path / "recs.jsonl"
        records.write_text(json.dumps({"graph_reasoning": GOOD_DOC}) + "\n")
        assert main(["viz", str(records), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "recs-1.dot").is_file()

    def test_lone_surrogate_row_is_written_escaped(self, tmp_path):
        rows = tmp_path / "row.jsonl"
        rows.write_text(json.dumps({"graph_reasoning": SURROGATE_DOC}) + "\n")
        assert main(["viz", str(rows), "--out-dir", str(tmp_path / "dots")]) == 0
        dot = (tmp_path / "dots" / "row-1.dot").read_bytes().decode("utf-8")
        assert "x\\ud800 start" in dot

    def test_a_path_that_cannot_be_read_is_one_line_on_stderr(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["viz", str(missing), "--out-dir", str(tmp_path / "dots")]) == 1
        err = f"{missing}: cannot be read (No such file or directory)\n"
        assert capsys.readouterr() == ("", err)

    def test_colon_in_text_file_path(self, tmp_path, capsys):
        doc = tmp_path / "a:b" / "doc.txt"
        doc.parent.mkdir()
        doc.write_text(GOOD_DOC)
        dots = tmp_path / "dots"
        assert main(["viz", str(doc), "--out-dir", str(dots)]) == 0
        assert capsys.readouterr().out == f"{dots / 'doc.dot'}\n"
        assert [p.name for p in dots.iterdir()] == ["doc.dot"]


class TestSample:
    def test_writes_samples_json(self, tmp_path, capsys):
        args = mock_args(tmp_path, {"Question:": ["r0", "r1", "r2"]})
        out = tmp_path / "samples.json"
        code = main(["sample", "why?", "--k", "3", "--out", str(out), *args])
        assert code == 0
        data = json.loads(out.read_text())
        assert data == {"question": "why?", "samples": ["r0", "r1", "r2"], "errors": {}}
        assert "3/3 samples" in capsys.readouterr().out

    def test_stdout_default(self, tmp_path, capsys):
        args = mock_args(tmp_path, {}, default="only reply")
        assert main(["sample", "why?", "--k", "1", *args]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == ["only reply"]

    def test_lone_surrogate_reply_is_written_escaped(self, tmp_path):
        out = tmp_path / "s.json"
        args = mock_args(tmp_path, {}, default=SURROGATE_DOC)
        assert main(["sample", "What is 2 + 2?", "--k", "1", "--out", str(out), *args]) == 0
        assert json.loads(out.read_bytes().decode("utf-8"))["samples"] == [SURROGATE_DOC]

    def test_lone_surrogate_reply_is_printed_escaped(self, tmp_path, capsys):
        args = mock_args(tmp_path, {}, default=SURROGATE_DOC)
        assert main(["sample", "What is 2 + 2?", "--k", "1", *args]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert json.loads(printed)["samples"] == [SURROGATE_DOC]

    def test_a_failed_sample_is_null_and_its_error_is_kept(self, tmp_path, capsys, monkeypatch):
        class SecondSampleFails(MockBackend):
            def send(self, request):
                if request.sample_index == 1:
                    raise ProtocolError("scripted failure")
                return super().send(request)

        monkeypatch.setattr("graphreason.cli.MockBackend", SecondSampleFails)
        out = tmp_path / "samples.json"
        args = mock_args(tmp_path, {"Question:": ["r0", "r1", "r2"]})
        assert main(["sample", "why?", "--k", "3", "--out", str(out), *args]) == 0
        data = json.loads(out.read_text())
        assert data == {
            "question": "why?", "samples": ["r0", None, "r2"], "errors": {"1": "scripted failure"},
        }
        assert capsys.readouterr().out == f"wrote {out} (2/3 samples)\n"

    def test_all_samples_failed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "samples.json"
        args = mock_args(tmp_path, {})
        assert main(["sample", "why?", "--k", "2", "--out", str(out), *args]) == 1
        prompt = TRAJECTORY_PROMPT.fill(question="why?")[1]
        reason = f"mock backend has no reply for prompt starting {prompt[:60]!r}"
        captured = capsys.readouterr()
        assert f"error: all 2 samples failed: {reason}; {reason}" in captured.err.splitlines()
        assert captured.out == ""
        assert not out.exists()


class TestMerge:
    def make_input(self, tmp_path: Path) -> Path:
        path = tmp_path / "samples.json"
        path.write_text(
            json.dumps(
                {
                    "question": "how many?",
                    "samples": [GOOD_DOC, GOOD_DOC.replace("4", "5"), GOOD_DOC],
                }
            )
        )
        return path

    def test_deterministic_merge_to_stdout(self, tmp_path, capsys):
        assert main(["merge", str(self.make_input(tmp_path))]) == 0
        merged = capsys.readouterr().out
        assert parse(merged, STRICT).answer == "4"

    def test_llm_merge_with_mock(self, tmp_path, capsys):
        args = mock_args(tmp_path, {"Candidate reasoning graphs:": GOOD_DOC})
        out = tmp_path / "merged.txt"
        code = main(
            ["merge", str(self.make_input(tmp_path)), "--merge-mode", "llm",
             "--out", str(out), *args]
        )
        assert code == 0
        assert parse(out.read_text(), STRICT).answer == "4"
        assert "mode: llm" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "samples,warnings",
        [
            (
                [GOOD_DOC, "Sure:\n" + GOOD_DOC, None, "Here:\n" + GOOD_DOC],
                ["samples 1, 3 accepted only under lenient parsing"],
            ),
            ([GOOD_DOC, GOOD_DOC], []),
        ],
        ids=["lenient-only", "strict"],
    )
    def test_lenient_only_samples_logged_once(self, tmp_path, caplog, samples, warnings):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "how many?", "samples": samples}))
        with caplog.at_level("WARNING"):
            assert main(["merge", str(path)]) == 0
        assert [r.getMessage() for r in caplog.records] == warnings

    def test_lone_surrogate_step_is_printed_and_written_escaped(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "how many?", "samples": [SURROGATE_DOC] * 2}))
        assert main(["merge", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "x\\ud800 start" in printed
        out = tmp_path / "merged.txt"
        assert main(["merge", str(path), "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == printed
        assert "answer: 4" in capsys.readouterr().out

    def test_edgeless_merge_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        cycle = [
            "<reasoning>\n<step> a → b </step>\n</reasoning>\n<answer> 4 </answer>",
            "<reasoning>\n<step> b → a </step>\n</reasoning>\n<answer> 4 </answer>",
            "<reasoning>\n<step> b → a </step>\n</reasoning>\n<answer> 4 </answer>",
        ]
        path.write_text(json.dumps({"question": "q", "samples": cycle}))
        assert main(["merge", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: conclusion 'b' keeps no incoming edge" in captured.err

    def test_unrenderable_merge_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        sample = "<reasoning>\n<step> a → b </step>\n</reasoning>\n<answer> x < y </answer>"
        path.write_text(json.dumps({"question": "q", "samples": [sample, sample]}))
        llm_args = ["--merge-mode", "llm", *mock_args(tmp_path, {}, default=GOOD_DOC)]
        for mode_args, message in [
            ([], "error: answer text may not contain angle brackets"),
            (llm_args, "error: integration failed: no candidate can be quoted: answer text"),
        ]:
            assert main(["merge", str(path), *mode_args]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_unparseable_samples_fail(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "q", "samples": ["prose", None]}))
        assert main(["merge", str(path)]) == 1
        assert "no sample parsed" in capsys.readouterr().err

    def test_candidates_is_not_a_name_for_samples(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "q", "candidates": [GOOD_DOC]}))
        assert main(["merge", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: missing field 'samples'\n")

    def test_non_string_sample_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "q", "samples": [5, None]}))
        assert main(["merge", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: field 'samples[0]' must be a string\n"


GOLDEN = FIXTURES / "golden"


@pytest.mark.parametrize("mode", MERGE_MODES)
def test_merge_command_finishes_each_item_as_the_build_does(tmp_path, capsys, mode):
    # One merge dispatch: each item's samples, merged on the command line,
    # give the document and provenance of the item's build row, or fail
    # with the detail of the item's merge discard.
    config = SamplingConfig(model_name="mock-teacher", k=3)
    items = read_sources(GOLDEN / "sources.jsonl")
    with ChatClient(MockBackend.from_file(GOLDEN / "mock.json"), sleep=lambda _: None) as client:
        result = build_dataset(items, client, config, merge_mode=mode)
        samples = {
            item.source_id: replies for item, replies in client.replies(
                items, lambda item: trajectory_requests(item.question, config)
            )
        }
    failures = {
        d.source_id: d.detail for d in result.discards
        if d.reason in (DISCARD_PARSE_FAILURE, DISCARD_EDGELESS_MERGE, DISCARD_UNRENDERABLE)
    }
    rows = {row.provenance.source_id: row for row in result.instances}
    assert rows and failures
    assert any(row.provenance.fell_back for row in rows.values()) == (mode == "llm-with-fallback")
    settings = ["--merge-mode", mode, "--mock", str(GOLDEN / "mock.json"), "--model", "mock-teacher"]
    for item in items:
        if item.source_id not in rows and item.source_id not in failures:
            continue
        path = tmp_path / f"{item.source_id}.json"
        path.write_text(json.dumps({"question": item.question, "samples": samples[item.source_id]}))
        out = tmp_path / f"{item.source_id}.txt"
        if item.source_id in failures:
            assert main(["merge", str(path), "--out", str(out), *settings]) == 1
            captured = capsys.readouterr()
            assert f"error: {failures[item.source_id]}\n" in captured.err
            assert captured.out == "" and not out.exists()
            continue
        row = rows[item.source_id]
        assert main(["merge", str(path), *settings]) == 0
        assert capsys.readouterr().out == row.graph_text + "\n", item.source_id
        assert main(["merge", str(path), "--out", str(out), *settings]) == 0
        assert out.read_text(encoding="utf-8") == row.graph_text + "\n"
        suffix = ", fell back" if row.provenance.fell_back else ""
        assert capsys.readouterr().out.endswith(f"mode: {row.provenance.merge_mode}{suffix})\n")


def build_fixture(tmp_path: Path) -> tuple[Path, Path, list[str]]:
    sources = tmp_path / "sources.jsonl"
    sources.write_text(
        json.dumps({"question": "q1: first?", "label": "4", "id": "q1"}) + "\n"
        + json.dumps({"question": "q2: second?", "label": "9", "id": "q2"}) + "\n"
        + json.dumps({"question": "q3: third?", "label": "1", "id": "q3"}) + "\n"
    )
    replies = {
        "q1:": GOOD_DOC,
        "q2:": GOOD_DOC,  # answers 4, label 9 -> mismatch
        "q3:": "cannot comply",
    }
    return sources, tmp_path / "out", mock_args(tmp_path, replies)


class TestBuild:
    def test_end_to_end(self, tmp_path, capsys):
        sources, out_dir, args = build_fixture(tmp_path)
        code = main(["build", "--sources", str(sources), "--out", str(out_dir), *args])
        assert code == 0
        out = capsys.readouterr().out
        assert "sources: 3" in out
        assert "retained: 1 (train 1, valid 0)" in out
        assert "discarded[answer-mismatch]: 1" in out
        assert "discarded[all-candidates-failed]: 1" in out
        assert "lenient-only samples: 0\n" in out
        rows = [json.loads(line) for line in (out_dir / "train.jsonl").read_text().splitlines()]
        assert rows[0]["label"] == "4"
        parse(rows[0]["graph_reasoning"], STRICT)
        report = json.loads((out_dir / "report.json").read_text())
        assert report["total_in"] == 3
        assert report["retained"] == 1

    def test_lenient_only_samples_printed_once(self, tmp_path, capsys, caplog):
        sources = tmp_path / "s.jsonl"
        sources.write_text(
            json.dumps({"question": "q1: first?", "label": "4"}) + "\n"
            + json.dumps({"question": "q2: second?", "label": "4"}) + "\n"
        )
        # q1 cycles lenient, strict, lenient; every sample of q2 is lenient-only.
        replies = {"q1:": ["Sure:\n" + GOOD_DOC, GOOD_DOC]}
        args = mock_args(tmp_path, replies, default="Here:\n" + GOOD_DOC)
        with caplog.at_level("WARNING"):
            code = main(
                ["build", "--sources", str(sources), "--out", str(tmp_path / "o"), "--k", "3", *args]
            )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:-1] == ["lenient-only samples: 5"]
        assert not [r for r in caplog.records if "lenient" in r.getMessage()]

    def test_a_repeated_source_id_is_named(self, tmp_path, capsys):
        # The id-less record on line 2 defaults to item-2, the id line 1 gives.
        sources = tmp_path / "s.jsonl"
        sources.write_text(
            json.dumps({"id": "item-2", "question": "q1: first?", "label": "4"}) + "\n"
            + json.dumps({"question": "q2: second?", "label": "4"}) + "\n"
        )
        args = mock_args(tmp_path, {}, default=GOOD_DOC)
        assert main(["build", "--sources", str(sources), "--out", str(tmp_path / "o"), *args]) == 1
        assert capsys.readouterr() == ("", "error: source id 'item-2' appears more than once\n")

    def test_nothing_retained_exits_one(self, tmp_path):
        sources = tmp_path / "s.jsonl"
        sources.write_text(json.dumps({"question": "q1: only?", "label": "4"}) + "\n")
        args = mock_args(tmp_path, {}, default="never a template")
        assert main(["build", "--sources", str(sources), "--out", str(tmp_path / "o"), *args]) == 1

    def test_lone_surrogate_question_builds_the_same_with_a_cache(self, tmp_path):
        sources = tmp_path / "s.jsonl"
        sources.write_text(
            json.dumps({"question": SURROGATE_QUESTION, "label": "4"}) + "\n"
            + json.dumps({"question": "q2: plain?", "label": "4"}) + "\n"
        )
        argv = ["build", "--sources", str(sources), "--k", "3",
                *mock_args(tmp_path, {}, default=GOOD_DOC)]
        outputs = uncached_and_cached_outputs(
            tmp_path, argv, ("train.jsonl", "valid.jsonl", "report.json")
        )
        assert outputs["cold"] == outputs["warm"] == outputs["uncached"]
        assert json.loads(outputs["uncached"]["report.json"])["retained"] == 2


class TestIngestEval:
    def make_benchmark(self, tmp_path: Path) -> Path:
        path = tmp_path / "aiw.json"
        path.write_text(
            json.dumps(
                [
                    {"prompt": "b1: alice question", "right_answer": 4},
                    {"prompt": "b2: bob question", "right_answer": 6},
                ]
            )
        )
        return path

    def test_ingest_then_eval(self, tmp_path, capsys):
        bench_path = self.make_benchmark(tmp_path)
        items = tmp_path / "items.jsonl"
        assert main(["ingest", "--benchmark", "aiw", "--path", str(bench_path),
                     "--out", str(items)]) == 0
        assert "ingested 2 items from aiw" in capsys.readouterr().out

        rows = [json.loads(line) for line in items.read_text().splitlines()]
        assert [row["item_id"] for row in rows] == ["aiw-1", "aiw-2"]

        args = mock_args(tmp_path, {"b1:": "4", "b2:": "says 5"})
        out_dir = tmp_path / "report"
        code = main(["eval", "--items", str(items), "--paradigm", "direct",
                     "--out", str(out_dir), *args])
        assert code == 0
        out = capsys.readouterr().out
        assert "paradigm: direct" in out
        assert "50.00" in out
        assert "transport failures: 0\n" in out
        assert (out_dir / "report.txt").is_file()
        records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
        assert [r["correct"] for r in records] == [True, False]

    def test_eval_directly_from_benchmark(self, tmp_path, capsys):
        bench_path = self.make_benchmark(tmp_path)
        items = tmp_path / "items.jsonl"
        assert main(["ingest", "--benchmark", "aiw", "--path", str(bench_path),
                     "--out", str(items)]) == 0
        capsys.readouterr()
        args = mock_args(tmp_path, {}, default="4")
        assert main(["eval", "--items", str(items), "--paradigm", "direct", *args]) == 0
        assert "aiw" in capsys.readouterr().out

    def test_eval_needs_a_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", *mock_args(tmp_path, {})])
        assert err.value.code == 2
        assert "the following arguments are required: --items" in capsys.readouterr().err

    def test_eval_of_no_items_exits_one(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text("")
        assert main(["eval", "--items", str(items), *mock_args(tmp_path, {})]) == 1
        assert capsys.readouterr() == ("", "error: no items to evaluate\n")

    # Per command: the input file's name, its lines, each a JSON value, and
    # what the one error line says after the file's path.
    @pytest.mark.parametrize("command, name, lines, problem", [
        (["ingest", "--benchmark", "logiqa"], "b.jsonl",
         [{"text": 5, "question": "q?", "options": ["x", "y"], "answer": 0}],
         ":1: field 'text' must be a string"),
        (["ingest", "--benchmark", "aiw"], "b.json", [[{"prompt": "p?", "right_answer": "   "}]],
         ": item 1: label must be non-empty"),
        (["ingest", "--benchmark", "aiw_plus"], "b.json", [[{"prompt": " ", "right_answer": "4"}]],
         ": item 1: question must be non-empty"),
        (["ingest", "--benchmark", "arlsat"], "b.json",
         [[{"passage": "p.", "questions": [{"question": ["q?"], "options": ["x"], "answer": 0}]}]],
         ": passage 1 question 1: field 'question' must be a string"),
        (["ingest", "--benchmark", "medqa"], "b.jsonl",
         [{"question": None, "options": {"A": "x"}, "answer_idx": "A"}],
         ":1: field 'question' must be a string"),
        (["ingest", "--benchmark", "mathqa"], "b.json",
         [[{"Problem": 3, "options": "a ) 1 , b ) 2", "correct": "a"}]],
         ": item 1: field 'Problem' must be a string"),
        (["eval", "--mock", "{mock}"], "items.jsonl",
         [{"question": "  ", "label": "4", "benchmark": "demo", "item_id": "d1"}],
         ":1: question must be non-empty"),
        (["ingest", "--benchmark", "aiw"], "b.json",
         [[{"id": "x", "prompt": "p?", "right_answer": "4"}] * 2],
         ": item id 'x' appears more than once"),
        (["eval", "--mock", "{mock}"], "items.jsonl",
         [{"question": "q?", "label": "4", "benchmark": "demo", "item_id": "x"}] * 2,
         ": item id 'x' appears more than once"),
    ], ids=["logiqa", "aiw", "aiw_plus", "arlsat", "medqa", "mathqa", "eval-items",
            "ingest-repeated-id", "eval-items-repeated-id"])
    def test_malformed_record_is_one_error_line(
        self, tmp_path, capsys, command, name, lines, problem
    ):
        path = tmp_path / name
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        mock = str(write_mock(tmp_path, {}, default="4"))
        source = ["--path" if command[0] == "ingest" else "--items", str(path)]
        argv = [arg.format(mock=mock) for arg in command] + source
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}{problem}\n"
        assert captured.out == ""

    def write_items(self, tmp_path: Path, *questions: str) -> Path:
        items = tmp_path / "items.jsonl"
        items.write_text("".join(
            json.dumps({"question": q, "label": "4", "benchmark": "demo", "item_id": f"d{i}"}) + "\n"
            for i, q in enumerate(questions, start=1)
        ))
        return items

    @pytest.mark.parametrize("replies, failed, code", [
        ({"b1:": "4", "b2:": "4"}, 0, 0),
        ({"b1:": "4"}, 1, 0),
        ({}, 2, 1),
    ], ids=["none", "some", "all"])
    def test_transport_failures_printed_and_all_failed_exits_one(
        self, tmp_path, capsys, replies, failed, code
    ):
        items = self.write_items(tmp_path, "b1: first?", "b2: second?")
        argv = ["eval", "--items", str(items), "--paradigm", "direct", "--out", str(tmp_path / "r")]
        assert main([*argv, *mock_args(tmp_path, replies)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == f"transport failures: {failed}"
        records = [json.loads(line) for line in (tmp_path / "r" / "records.jsonl").open()]
        assert sum(r["error"] is not None for r in records) == failed

    def test_lone_surrogate_benchmark_is_printed_and_written_escaped(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text(json.dumps(
            {"question": "b1: first?", "label": "4", "benchmark": "de\ud800mo", "item_id": "d1"}
        ) + "\n")
        out = tmp_path / "r"
        argv = ["eval", "--items", str(items), "--paradigm", "direct", "--out", str(out)]
        assert main([*argv, *mock_args(tmp_path, {}, default="4")]) == 0
        assert "de\\ud800mo" in capsys.readouterr().out
        assert "de\\ud800mo" in (out / "report.txt").read_bytes().decode("utf-8")
        per_benchmark = json.loads((out / "report.json").read_bytes())["per_benchmark"]
        assert per_benchmark["de\ud800mo"]["correct"] == 1
        record = json.loads((out / "records.jsonl").read_bytes().decode("utf-8"))
        assert record["benchmark"] == "de\ud800mo"

    def test_lone_surrogate_question_evaluates_the_same_with_a_cache(self, tmp_path):
        items = self.write_items(tmp_path, SURROGATE_QUESTION, "q2: plain?")
        argv = ["eval", "--items", str(items), "--paradigm", "direct",
                *mock_args(tmp_path, {}, default="4")]
        outputs = uncached_and_cached_outputs(
            tmp_path, argv, ("report.txt", "report.json", "records.jsonl")
        )
        assert outputs["cold"] == outputs["warm"] == outputs["uncached"]
        assert json.loads(outputs["uncached"]["report.json"])["per_benchmark"]["demo"]["correct"] == 2


def test_eval_and_score_take_a_later_answer_tag_by_one_rule(tmp_path, capsys):
    # A reply whose later answer tag corrects an earlier one: eval counts it
    # correct and score gives it the full answer reward.
    reply = (
        "<reasoning>\n<step> add 3 and 3 -> 6 </step>\n</reasoning>\n"
        "<answer> 3 </answer> Wait, actually <answer> 6 </answer>"
    )
    items = tmp_path / "items.jsonl"
    item = {"question": "What is 3 + 3?", "label": "6", "benchmark": "demo", "item_id": "d1"}
    items.write_text(json.dumps(item) + "\n")
    out_dir = tmp_path / "results"
    assert main(["eval", "--items", str(items), "--paradigm", "self-graph", "--out", str(out_dir),
                 *mock_args(tmp_path, {"What is 3 + 3?": reply})]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["per_benchmark"]["demo"]["correct"] == 1
    capsys.readouterr()

    completions = tmp_path / "completions.jsonl"
    completions.write_text(json.dumps({"text": reply, "label": "6"}) + "\n")
    assert main(["score", "--completions", str(completions)]) == 0
    assert "mean answer reward: 1.0000" in capsys.readouterr().out.splitlines()


class TestScore:
    def test_scores_and_writes(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            json.dumps({"text": GOOD_DOC, "label": "4"}) + "\n"
            + json.dumps({"text": "The answer is 9", "label": "9"}) + "\n"
        )
        out = tmp_path / "rewards.jsonl"
        code = main(["score", "--completions", str(completions), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "scored 2 completions" in printed
        assert "mean format reward: 0.5000" in printed
        assert "mean combined reward: 1.5000" in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0] == {"index": 0, "format_reward": 1.0, "answer_reward": 1.0, "combined": 2.0}

    def test_custom_weights(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"text": GOOD_DOC, "label": "4"}) + "\n")
        code = main(["score", "--completions", str(completions),
                     "--format-weight", "0.5", "--answer-weight", "2"])
        assert code == 0
        assert "mean combined reward: 2.5000" in capsys.readouterr().out

    @pytest.mark.parametrize("weights, culprit", [
        (["--format-weight", "nan", "--answer-weight", "inf"], "format_weight"),
        (["--answer-weight", "inf"], "answer_weight"),
        (["--format-weight", "-1"], "format_weight"),
    ])
    def test_non_finite_or_negative_weight_exits_two(self, tmp_path, capsys, weights, culprit):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"text": GOOD_DOC, "label": "4"}) + "\n")
        assert main(["score", "--completions", str(completions), *weights]) == 2
        captured = capsys.readouterr()
        assert f"config error: {culprit}:" in captured.err
        assert "mean combined reward" not in captured.out

    def test_bad_row_exits_one(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text('{"text": "x"}\n')
        assert main(["score", "--completions", str(completions)]) == 1
        assert capsys.readouterr().err == f"error: {completions}:1: missing field 'label'\n"

    @pytest.mark.parametrize("row,field", [
        ({"text": "<answer> 4 </answer>", "label": True}, "label"),
        ({"text": None, "label": "4"}, "text"),
        ({"completion": ["x"], "label": "4"}, "completion"),
    ])
    def test_a_field_that_is_not_a_string_is_named(self, tmp_path, capsys, row, field):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps(row) + "\n")
        assert main(["score", "--completions", str(completions)]) == 1
        kind = "a string or a finite number" if field == "label" else "a string"
        assert capsys.readouterr() == (
            "", f"error: {completions}:1: field '{field}' must be {kind}\n"
        )

    def test_a_number_label_is_read_as_build_reads_it(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"text": GOOD_DOC, "label": 4}) + "\n")
        assert main(["score", "--completions", str(completions)]) == 0
        assert "mean answer reward: 1.0000" in capsys.readouterr().out

    # A row with two template keys: score and validate read its first, "text",
    # which holds no template, so it earns no format reward and does not parse.
    TWO_KEYS = {"graph_reasoning": GOOD_DOC, "text": "no template", "label": "4"}

    def test_score_reads_the_first_template_key_a_row_has(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(json.dumps(self.TWO_KEYS) + "\n")
        assert main(["score", "--completions", str(rows)]) == 0
        assert "mean format reward: 0.0000" in capsys.readouterr().out

    def test_validate_reads_the_first_template_key_a_row_has(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(json.dumps(self.TWO_KEYS) + "\n")
        assert main(["validate", str(rows)]) == 1
        assert capsys.readouterr().out.startswith(f"{rows}:1: parse error: ")

    @pytest.mark.parametrize("command, stream", [
        (["score", "--completions"], "err"), (["validate"], "out"),
    ], ids=["score", "validate"])
    def test_a_null_first_template_key_is_named(self, tmp_path, capsys, command, stream):
        rows = tmp_path / "rows.jsonl"
        row = {"text": None, "graph_reasoning": GOOD_DOC, "label": "4"}
        rows.write_text(json.dumps(row) + "\n")
        assert main([*command, str(rows)]) == 1
        line = f"{rows}:1: field 'text' must be a string\n"
        assert getattr(capsys.readouterr(), stream) == ("error: " if stream == "err" else "") + line

    def test_non_object_row_exits_one(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"text": GOOD_DOC, "label": "4"}) + "\n[1, 2]\n")
        assert main(["score", "--completions", str(completions)]) == 1
        assert capsys.readouterr().err == (
            f"error: {completions}:2: expected an object\n"
        )


class TestMockFile:
    @pytest.mark.parametrize(
        "body,problem",
        [
            ("{not json", "invalid JSON"),
            ("[]", "expected an object"),
            ('{"replies": "why?"}', "field 'replies' must be an object"),
            ('{"default": ["x"]}', "field 'default' must be a string"),
        ],
    )
    def test_malformed_mock_is_a_config_error(self, tmp_path, capsys, body, problem):
        mock = tmp_path / "mock.json"
        mock.write_text(body)
        assert main(["sample", "why?", "--mock", str(mock)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: mock: {mock}: {problem}")
        assert captured.out == ""

    def test_missing_mock_is_a_config_error(self, tmp_path, capsys):
        mock = tmp_path / "nope.json"
        assert main(["sample", "why?", "--mock", str(mock)]) == 2
        assert capsys.readouterr().err == f"config error: mock: {mock}: no such file\n"


CODEC_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestUndecodableInput:
    # Every file-reading command, on a file holding byte 0xff: the exit
    # code, the stream the one message goes to, and the message.
    @pytest.mark.parametrize(
        "command,name,code,stream,message",
        [
            (["build", "--out", "o", "--sources"], "s.jsonl", 1, "err",
             "error: {path}:1: invalid JSON ({codec})"),
            (["ingest", "--benchmark", "logiqa", "--out", "o.jsonl", "--path"], "b.jsonl", 1,
             "err", "error: {path}:1: invalid JSON ({codec})"),
            (["ingest", "--benchmark", "aiw", "--out", "o.jsonl", "--path"], "b.json", 1, "err",
             "error: {path}: invalid JSON ({codec})"),
            (["eval", "--items"], "items.jsonl", 1, "err", "error: {path}:1: invalid JSON ({codec})"),
            (["score", "--completions"], "c.jsonl", 1, "err",
             "error: {path}:1: invalid JSON ({codec})"),
            (["merge"], "samples.json", 1, "err", "error: {path}: invalid JSON ({codec})"),
            (["validate"], "r.jsonl", 1, "out", "{path}:1: invalid JSON ({codec})"),
            (["validate"], "doc.txt", 1, "out", "{path}: not UTF-8 text ({codec})"),
            (["viz"], "r.jsonl", 1, "err", "{path}:1: invalid JSON ({codec})"),
            (["viz"], "doc.txt", 1, "err", "{path}: not UTF-8 text ({codec})"),
            (["sample", "why?", "--config"], "run.cfg", 2, "err",
             "config error: config: {path}: not UTF-8 text ({codec})"),
        ],
        ids=["build", "ingest-jsonl", "ingest-json", "eval", "score", "merge", "validate-jsonl",
             "validate-txt", "viz-jsonl", "viz-txt", "config"],
    )
    def test_reported_not_raised(
        self, tmp_path, capsys, monkeypatch, command, name, code, stream, message
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.write_bytes(b"\xff\n")
        assert main([*command, str(path)]) == code
        captured = capsys.readouterr()
        assert getattr(captured, stream) == message.format(path=path, codec=CODEC_ERROR) + "\n"
        assert getattr(captured, "out" if stream == "err" else "err") == ""

    def test_jsonl_lines_break_as_in_text_mode_and_fail_alone(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        good = json.dumps({"graph_reasoning": GOOD_DOC}).encode()
        records.write_bytes(good + b"\r\n\xff\n" + good + b"\r" + good + b"\n")
        assert main(["validate", str(records)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{records}:1: 3 nodes, 2 edges, 0 errors",
            f"{records}:2: invalid JSON ({CODEC_ERROR})",
            f"{records}:3: 3 nodes, 2 edges, 0 errors",
            f"{records}:4: 3 nodes, 2 edges, 0 errors",
        ]


# The CLI property: any input file, JSON or not UTF-8, makes every command
# that reads one exit 0, 1 or 2 with at most one error line and no exception.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(("", " ", "A", "4", GOOD_DOC, SURROGATE_DOC)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _positions(value, path=()):
    """The path of ``value`` and of each member of it, at any depth."""
    yield path
    if isinstance(value, (dict, list)):
        for key, member in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _positions(member, (*path, key))


_DROP = object()


def _put(value, path, new):
    """A copy of ``value`` with the member at ``path`` replaced by ``new``, or removed for _DROP."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) == 1 and new is _DROP:
        del copy[path[0]]
    else:
        copy[path[0]] = _put(value[path[0]], path[1:], new)
    return copy


@st.composite
def mutants(draw, value):
    """``value`` with one or two members, at any depth, removed or replaced by any JSON value."""
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_positions(value))))
        drop = path and draw(st.integers(0, 3)) == 0
        value = _put(value, path, _DROP if drop else draw(json_values))
    return value


def file_bodies(name: str, document) -> st.SearchStrategy:
    """Bytes of a file named ``name`` near ``document``, or bytes that are not UTF-8.

    A str is a text file: any text, or lines of it. A .jsonl file's
    document is a list of dicts: mutants of its record, one per line.
    Anything else is a JSON file holding a mutant of it.
    """
    if isinstance(document, str):
        lines = document.splitlines(keepends=True)
        near = st.text() | st.lists(st.sampled_from(lines)).map("".join)
    elif name.endswith(".jsonl"):
        near = st.lists(mutants(document[0]), min_size=1, max_size=3).map(
            lambda rows: "".join(json.dumps(row) + "\n" for row in rows)
        )
    else:
        near = mutants(document).map(json.dumps)
    near = near.map(str.encode)
    not_utf8 = st.tuples(st.binary(max_size=8), st.binary(max_size=8)).map(b"\xff".join)
    return st.one_of(near, near, near, not_utf8)


def _ingest(benchmark: str) -> list[str]:
    return ["ingest", "--benchmark", benchmark, "--path", "{f}", "--out", "{d}/items.jsonl"]


BUILD = ["build", "--sources", "{f}", "--out", "{d}", "--mock", "{mock}", "--k", "2"]

# Input that a reader refuses: per case, the command, the input file's name,
# its document, and what the one error line says after the file's path.
MALFORMED = {
    "aiw-null-prompt": (_ingest("aiw"), "b.json", [{"prompt": None, "right_answer": {"a": 1}}],
                        ": item 1: field 'prompt' must be a string"),
    "logiqa-null-option": (
        _ingest("logiqa"), "b.jsonl",
        [{"text": "t.", "question": "q?", "options": [None, {"a": 1}], "answer": True}],
        ":1: field 'options[0]' must be a string",
    ),
    "logiqa-bool-answer": (
        _ingest("logiqa"), "b.jsonl",
        [{"text": "t.", "question": "q?", "options": ["x", "y"], "answer": True}],
        ":1: field 'answer' must be an option index",
    ),
    "medqa-null-option": (
        _ingest("medqa"), "b.jsonl",
        [{"question": "q?", "options": {"A": 1, "B": None}, "answer_idx": "A"}],
        ":1: field 'options[A]' must be a string",
    ),
    "arlsat-bool-answer": (
        _ingest("arlsat"), "b.json",
        [{"passage": "p.",
          "questions": [{"question": "q?", "options": ["x", "y"], "answer": True}]}],
        ": passage 1 question 1: field 'answer' must be an option index",
    ),
    "mathqa-number-options": (_ingest("mathqa"), "b.json",
                              [{"Problem": "p?", "options": 12345, "correct": "a"}],
                              ": item 1: field 'options' must be a string"),
    **{
        f"ingest-{name}-id": (_ingest("aiw"), "b.json",
                              [{"prompt": "p?", "right_answer": 4, "id": value}],
                              ": item 1: field 'id' must be a non-blank string or an integer")
        for name, value in [("blank", ""), ("float", 1.5), ("list", [1])]
    },
    **{
        f"build-{name}-id": (BUILD, "sources.jsonl",
                             [{"question": "q?", "label": "4", "id": value}],
                             ":1: field 'id' must be a non-blank string or an integer")
        for name, value in [("object", {"x": 1}), ("bool", True)]
    },
    "merge-null-question": (["merge", "{f}", "--out", "{d}/merged.txt"], "samples.json",
                            {"question": None, "samples": [GOOD_DOC]},
                            ": field 'question' must be a string"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_value_of_another_type_is_one_error_line_and_writes_nothing(tmp_path, capsys, case):
    argv, name, document, problem = MALFORMED[case]
    path = tmp_path / name
    if name.endswith(".jsonl"):
        path.write_text("".join(json.dumps(row) + "\n" for row in document))
    else:
        path.write_text(json.dumps(document))
    out = tmp_path / "out"
    mock = write_mock(tmp_path, {}, default=GOOD_DOC)
    assert main([arg.format(f=path, d=out, mock=mock) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {path}{problem}\n")
    assert not out.exists()


# Every command that reads a file, the file's name and a body for it: a
# valid one, or one that MALFORMED or the template key order names. In a
# command, {f} is the drawn file, {d} a fresh directory, {mock} a mock
# whose every reply is GOOD_DOC and {doc} a file holding GOOD_DOC.
FILE_READERS = {
    "validate-txt": (["validate", "{f}"], "doc.txt", GOOD_DOC),
    "validate-jsonl": (["validate", "{f}"], "rows.jsonl", [{"graph_reasoning": GOOD_DOC}]),
    "viz": (["viz", "{f}", "--out-dir", "{d}"], "rows.jsonl", [{"text": GOOD_DOC}]),
    "merge": (["merge", "{f}"], "samples.json", {"question": "q?", "samples": [GOOD_DOC, None]}),
    "build": (["build", "--sources", "{f}", "--out", "{d}", "--mock", "{mock}", "--k", "2"],
              "sources.jsonl", [{"question": "q?", "label": "4", "id": "s1"}]),
    "ingest-logiqa": (_ingest("logiqa"), "b.jsonl",
                      [{"text": "t.", "question": "q?", "options": ["x", "y"], "answer": 0}]),
    "ingest-aiw": (_ingest("aiw"), "b.json", [{"prompt": "p?", "right_answer": 4}]),
    "ingest-aiw_plus": (_ingest("aiw_plus"), "b.json",
                        [{"prompt": "p?", "right_answer": "4", "id": 7}]),
    "ingest-arlsat": (_ingest("arlsat"), "b.json", [
        {"passage": "p.", "questions": [{"question": "q?", "options": ["x", "y"], "answer": "B"}]}
    ]),
    "ingest-medqa": (_ingest("medqa"), "b.jsonl",
                     [{"question": "q?", "options": {"A": "x", "B": "y"}, "answer_idx": "A"}]),
    "ingest-mathqa": (_ingest("mathqa"), "b.json",
                      [{"Problem": "p?", "options": "a ) 1 , b ) 2", "correct": "b"}]),
    "eval": (["eval", "--items", "{f}", "--mock", "{mock}", "--out", "{d}"], "items.jsonl",
             [{"question": "q?", "label": "4", "benchmark": "demo", "item_id": "d1"}]),
    "score": (["score", "--completions", "{f}"], "completions.jsonl",
              [{"text": GOOD_DOC, "label": "4"}]),
    "config": (["validate", "{doc}", "--config", "{f}"], "run.cfg", "k = 3\nseed = 1\nmodel = m\n"),
    "validate-null-first-key": (["validate", "{f}"], "rows.jsonl",
                                [{"graph_reasoning": None, "text": GOOD_DOC}]),
    **{case: (argv, name, document) for case, (argv, name, document, _) in MALFORMED.items()},
}


def run_main(argv: list[str], encoding: str = "utf-8") -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, each encoding as a terminal's does.

    stdout refuses a character that ``encoding`` cannot encode, as it does
    in a UTF-8 (or ASCII) locale; stderr writes it as a backslash escape.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding=encoding, errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


@pytest.mark.parametrize("command", FILE_READERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_input_file_exits_with_a_code_and_at_most_one_error_line(command, data):
    argv, name, document = FILE_READERS[command]
    body = data.draw(file_bodies(name, document), label="body")
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / name).write_bytes(body)
        (tmp_path / "doc.txt").write_text(GOOD_DOC)
        places = {"f": tmp_path / name, "d": tmp_path / "out", "doc": tmp_path / "doc.txt",
                  "mock": write_mock(tmp_path, {}, default=GOOD_DOC)}
        code, _, err = run_main([arg.format(**places) for arg in argv])
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith(("error:", "config error:"))]
    assert len(errors) <= 1


# Every command that prints a path it was given, with {d} a directory whose
# name holds the byte 0xff, and the inputs it reads there.
PATH_ECHOES = {
    "validate": ["validate", "{d}/doc.txt"],
    "viz": ["viz", "{d}/doc.txt", "--out-dir", "{d}/dots"],
    "sample": ["sample", "q?", "--mock", "{d}/mock.json", "--k", "2", "--out", "{d}/s.json"],
    "merge": ["merge", "{d}/samples.json", "--out", "{d}/merged.txt"],
    "build": ["build", "--sources", "{d}/sources.jsonl", "--out", "{d}/dataset",
              "--mock", "{d}/mock.json", "--k", "2"],
    "ingest": ["ingest", "--benchmark", "aiw", "--path", "{d}/aiw.json", "--out", "{d}/i.jsonl"],
    "eval": ["eval", "--items", "{d}/items.jsonl", "--mock", "{d}/mock.json", "--out", "{d}/r"],
    "score": ["score", "--completions", "{d}/completions.jsonl", "--out", "{d}/scores.jsonl"],
}


@pytest.mark.parametrize("command", PATH_ECHOES)
def test_a_path_that_is_not_utf8_is_printed_escaped(tmp_path, command):
    d = tmp_path / os.fsdecode(b"\xff")
    d.mkdir()
    (d / "doc.txt").write_text(GOOD_DOC)
    write_mock(d, {}, default=GOOD_DOC)
    (d / "samples.json").write_text(json.dumps({"question": "q?", "samples": [GOOD_DOC]}))
    (d / "sources.jsonl").write_text(json.dumps({"question": "q?", "label": "4", "id": "s1"}))
    (d / "aiw.json").write_text(json.dumps([{"prompt": "p?", "right_answer": 4}]))
    (d / "items.jsonl").write_text(json.dumps(
        {"question": "q?", "label": "4", "benchmark": "demo", "item_id": "d1"}
    ))
    (d / "completions.jsonl").write_text(json.dumps({"text": GOOD_DOC, "label": "4"}))
    code, out, _ = run_main([arg.format(d=d) for arg in PATH_ECHOES[command]])
    assert code == 0
    assert f"{tmp_path}/\\udcff/" in out


def test_a_stdout_that_cannot_encode_a_character_prints_its_escape(tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"question": "q?", "samples": [GOOD_DOC]}))
    code, utf8_out, _ = run_main(["merge", str(path)])
    assert code == 0 and "collect facts → compare options" in utf8_out
    code, ascii_out, err = run_main(["merge", str(path)], encoding="ascii")
    assert (code, err) == (0, "")
    assert "collect facts \\u2192 compare options" in ascii_out
    assert ascii_out == utf8_out.encode("ascii", "backslashreplace").decode()


def test_a_stream_without_reconfigure_is_written_as_is(tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"question": "q?", "samples": [SURROGATE_DOC, None]}))
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["merge", str(path)]) == 0
        assert main(["merge", str(broken)]) == 1
    assert "x\ud800 start → compare options" in out.getvalue()
    assert err.getvalue().startswith(f"error: {broken}: invalid JSON (")


# Per setting: the type it resolves to, then three valid raw values, each
# differing from the one before and the first from the default, for a
# config file line, the environment and the flag.
SETTING_VALUES = {
    "endpoint": (str, "http://file.invalid", "http://env.invalid", "http://flag.invalid"),
    "credential_env": (str, "FILE_KEY", "ENV_KEY", "FLAG_KEY"),
    "model": (str, "file-model", "env-model", "flag-model"),
    "mock": (str, "file.json", "env.json", "flag.json"),
    "cache_dir": (str, "file-cache", "env-cache", "flag-cache"),
    "concurrency": (int, "2", "3", "4"),
    "retry_cap": (int, "2", "3", "5"),
    "k": (int, "2", "3", "4"),
    "temperature": (float, "0.5", "0.25", "1.5"),
    "seed": (int, "1", "2", "3"),
    "max_new_tokens": (int, "16", "32", "64"),
    "merge_mode": (str, "llm", "llm-with-fallback", "deterministic"),
    "split_seed": (int, "1", "2", "3"),
    "paradigm": (str, "direct", "linear", "self-graph"),
    "format_weight": (float, "0.5", "2", "3"),
    "answer_weight": (float, "0.5", "2", "3"),
}


class TestSettingsSurface:
    def test_every_setting_is_covered(self):
        assert set(SETTING_VALUES) == {setting.name for setting in fields(RunConfig)}

    @pytest.mark.parametrize("name", list(SETTING_VALUES))
    def test_flag_beats_env_beats_file_beats_default(self, tmp_path, monkeypatch, name):
        for var in list(os.environ):
            if var.startswith("GRAPHREASON_"):
                monkeypatch.delenv(var)
        kind, from_file, from_env, from_flag = SETTING_VALUES[name]
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = {from_file}\n")
        flag = ["--" + name.replace("_", "-"), from_flag]

        def resolved(*argv: str):
            args = build_parser().parse_args(["validate", "doc.txt", *argv])
            return getattr(resolve_config(args), name)

        assert resolved() == getattr(RunConfig(), name)
        assert resolved("--config", str(config)) == kind(from_file)
        monkeypatch.setenv("GRAPHREASON_" + name.upper(), from_env)
        assert resolved("--config", str(config)) == kind(from_env)
        value = resolved("--config", str(config), *flag)
        assert value == kind(from_flag) and type(value) is kind

    def test_readme_keys_are_the_fields(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        keys = re.search(r"^Keys:.*?(?:\n\n|\Z)", readme, re.S | re.M).group(0)
        assert set(re.findall(r"`([a-z_]+)`", keys)) == {s.name for s in fields(RunConfig)}


class TestConfigResolution:
    def sample_count(self, tmp_path, capsys, extra_args: list[str], monkeypatch=None) -> int:
        args = mock_args(tmp_path, {}, default="r")
        assert main(["sample", "why?", *args, *extra_args]) == 0
        return len(json.loads(capsys.readouterr().out)["samples"])

    def test_flag_beats_env_beats_file(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("# build settings\nk = 2\n")
        assert self.sample_count(tmp_path, capsys, ["--config", str(config)]) == 2
        monkeypatch.setenv("GRAPHREASON_K", "3")
        assert self.sample_count(tmp_path, capsys, ["--config", str(config)]) == 3
        assert self.sample_count(tmp_path, capsys, ["--config", str(config), "--k", "4"]) == 4

    def test_default_k(self, tmp_path, capsys):
        assert self.sample_count(tmp_path, capsys, []) == 5

    def test_config_file_via_env(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("k = 2\n")
        monkeypatch.setenv("GRAPHREASON_CONFIG", str(config))
        assert self.sample_count(tmp_path, capsys, []) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        assert main(["sample", "why?", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"config error: config: {config}: no such file\n")

    @pytest.mark.parametrize("written, model", [
        ('"quoted teacher"', "quoted teacher"),
        ("'quoted teacher'", "quoted teacher"),
        ('"half-quoted', '"half-quoted'),
    ])
    def test_quoted_config_value(self, tmp_path, written, model):
        config = tmp_path / "run.cfg"
        config.write_text(f"model = {written}\n")
        args = build_parser().parse_args(["sample", "why?", "--config", str(config)])
        assert resolve_config(args).model == model

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("shards = 4\n")
        assert main(["sample", "why?", "--config", str(config)]) == 2
        assert "config error: shards: unknown config key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just words\n")
        assert main(["sample", "why?", "--config", str(config)]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_bad_int_flag(self, tmp_path, capsys):
        assert main(["sample", "why?", "--k", "many"]) == 2
        assert "config error: k: invalid integer 'many'" in capsys.readouterr().err

    def test_bad_merge_mode(self, tmp_path, capsys):
        assert main(["sample", "why?", "--merge-mode", "vote"]) == 2
        assert "config error: merge_mode:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "merge"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_empty_model_is_a_config_error(self, tmp_path, capsys, monkeypatch, command, source):
        sources = tmp_path / "s.jsonl"
        sources.write_text(json.dumps({"question": "q1: first?", "label": "4"}) + "\n")
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"question": "how many?", "samples": [GOOD_DOC]}))
        argv = {
            "build": ["build", "--sources", str(sources), "--out", str(tmp_path / "out")],
            "merge": ["merge", str(samples), "--merge-mode", "llm"],
        }[command] + mock_args(tmp_path, {}, default=GOOD_DOC)
        if source == "flag":
            argv += ["--model", ""]
        elif source == "env":
            monkeypatch.setenv("GRAPHREASON_MODEL", "")
        else:
            (tmp_path / "run.cfg").write_text("model =\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: model: model must be non-empty\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_blank_model_is_a_config_error(self, tmp_path, capsys, monkeypatch, source):
        argv = ["sample", "q?", *mock_args(tmp_path, {}, default=GOOD_DOC)]
        if source == "flag":
            argv += ["--model", " "]
        else:
            monkeypatch.setenv("GRAPHREASON_MODEL", " \t")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: model: model must be non-empty\n")

    @pytest.mark.parametrize("name", ["endpoint", "credential_env"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_blank_endpoint_or_credential_env_is_a_config_error(
        self, capsys, monkeypatch, name, source
    ):
        monkeypatch.setenv("GRAPHREASON_API_KEY", "sk-test")
        settings = {"endpoint": "http://example.invalid/v1/chat", name: " "}
        argv = ["sample", "q?", "--k", "2", "--retry-cap", "1"]
        for key, value in settings.items():
            if source == "flag" or key != name:
                argv += ["--" + key.replace("_", "-"), value]
            else:
                monkeypatch.setenv("GRAPHREASON_" + key.upper(), value)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: {name}: {name} must be non-empty\n")

    @pytest.mark.parametrize("name", ["mock", "cache_dir"])
    @pytest.mark.parametrize("value", ["", " "], ids=["empty", "space"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_blank_mock_or_cache_dir_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, name, value, source
    ):
        monkeypatch.chdir(tmp_path)
        sources = tmp_path / "s.jsonl"
        sources.write_text(json.dumps({"question": "q1: first?", "label": "4"}) + "\n")
        settings = {"mock": str(write_mock(tmp_path, {}, default=GOOD_DOC)), name: value}
        argv = ["build", "--sources", str(sources), "--out", str(tmp_path / "o")]
        for key, setting in settings.items():
            if source == "flag" or key != name:
                argv += ["--" + key.replace("_", "-"), setting]
            else:
                monkeypatch.setenv("GRAPHREASON_" + key.upper(), setting)
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: {name}: {name} must be non-empty\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_bad_paradigm(self, capsys):
        assert main(["sample", "why?", "--paradigm", "tree"]) == 2
        assert "config error: paradigm:" in capsys.readouterr().err

    def test_endpoint_required_without_mock(self, capsys, monkeypatch):
        monkeypatch.delenv("GRAPHREASON_ENDPOINT", raising=False)
        assert main(["sample", "why?"]) == 2
        assert "config error: endpoint: required unless --mock" in capsys.readouterr().err

    def test_out_of_range_temperature(self, capsys):
        assert main(["sample", "why?", "--temperature", "3"]) == 2
        assert "config error: temperature:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, message", [
        ("retry_cap", "0", "retry_cap must be >= 1, got 0"),
        ("concurrency", "-1", "concurrency must be >= 1, got -1"),
        ("k", "0", "k must be >= 1, got 0"),
        ("max_new_tokens", "0", "max_new_tokens must be >= 1, got 0"),
        ("temperature", "-0.5", "temperature out of range [0, 2]: -0.5"),
    ])
    def test_range_error_names_the_setting(self, capsys, name, value, message):
        flag = "--" + name.replace("_", "-")
        assert main(["sample", "why?", flag, value]) == 2
        assert f"config error: {name}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("concurrency", [1, 16, 32])
    def test_http_pool_keeps_a_connection_per_request_in_flight(self, concurrency):
        cfg = RunConfig(endpoint="http://example.invalid/v1/chat", concurrency=concurrency)
        with make_client(cfg) as client:
            adapters = client.backend._session.adapters
        assert {prefix: a._pool_maxsize for prefix, a in adapters.items()} == {
            "https://": concurrency, "http://": concurrency
        }

    def test_credential_is_not_a_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "why?", "--credential", "sk-123"])
        assert err.value.code == 2

    def test_cache_that_is_not_a_database_is_a_config_error(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "completions.sqlite3").write_text("not a database " * 20)
        mock = write_mock(tmp_path, {}, default="reply")
        assert main(["sample", "why?", "--mock", str(mock), "--cache-dir", str(cache)]) == 2
        assert "config error: cache_dir:" in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        cache = tmp_path / "afile"
        cache.write_text("")
        mock = write_mock(tmp_path, {}, default="reply")
        assert main(["sample", "why?", "--mock", str(mock), "--cache-dir", str(cache)]) == 2
        assert f"config error: cache_dir: {cache}: " in capsys.readouterr().err

    def test_cache_dir_reused_across_runs(self, tmp_path, capsys):
        mock = write_mock(tmp_path, {}, default="first run")
        cache = tmp_path / "cache"
        base = ["sample", "why?", "--k", "1", "--cache-dir", str(cache)]
        assert main([*base, "--mock", str(mock)]) == 0
        first = json.loads(capsys.readouterr().out)["samples"]
        mock.write_text(json.dumps({"replies": {}, "default": "second run"}))
        assert main([*base, "--mock", str(mock)]) == 0
        second = json.loads(capsys.readouterr().out)["samples"]
        assert first == second == ["first run"]

    @pytest.mark.parametrize("value", NOT_UTF8_TEXT)
    def test_cache_rows_that_are_not_utf8_text_are_requested_again(
        self, tmp_path, capsys, caplog, value
    ):
        mock = write_mock(tmp_path, {}, default="reply")
        cache = tmp_path / "cache"
        argv = ["sample", "why?", "--k", "2", "--mock", str(mock), "--cache-dir", str(cache)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert corrupt_store(cache, value) == 2
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert caplog.text.count("cache read failed") == 2


# Reports, as its last stdout line, which steps left ``requests`` loaded.
HTTP_STACK_SCRIPT = """
import json, sys

steps = []
def step(name, code=None):
    steps.append([name, code, "requests" in sys.modules])

import graphreason
step("import graphreason")
import graphreason.cli
step("import graphreason.cli")
for argv in json.loads(sys.argv[1]):
    step(argv[0], graphreason.cli.main(argv))
from graphreason.client import HttpBackend
HttpBackend("http://example.invalid/v1/chat")
step("HttpBackend")
print(json.dumps(steps))
"""


def test_only_an_http_backend_loads_the_http_stack(tmp_path):
    golden = FIXTURES / "golden"
    mock = ["--mock", str(golden / "mock.json"), "--k", "3"]
    runs = [
        ["score", "--completions", str(golden / "completions.jsonl"), "--out", str(tmp_path / "s.jsonl")],
        ["validate", str(FIXTURES / "case_study.txt")],
        ["build", "--sources", str(golden / "sources.jsonl"), "--out", str(tmp_path / "ds"), *mock],
        ["eval", "--items", str(golden / "items.jsonl"), "--paradigm", "self-graph",
         "--out", str(tmp_path / "eval"), *mock],
    ]
    done = run_python(HTTP_STACK_SCRIPT, json.dumps(runs))
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps == [
        ["import graphreason", None, False],
        ["import graphreason.cli", None, False],
        ["score", 0, False],
        ["validate", 0, False],
        ["build", 0, False],
        ["eval", 0, False],
        ["HttpBackend", None, True],
    ]


# Reports, as its last stdout line, which of WATCHED each step left loaded,
# then the exported names that dir() and a star import missed.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys

WATCHED = ("graphreason.client", "sqlite3", "hashlib", "concurrent.futures", "email.utils")
steps = []
def step(name, code=None):
    steps.append([name, code, [m for m in WATCHED if m in sys.modules]])

import graphreason
undir = sorted(set(graphreason.__all__) - set(dir(graphreason)))
import graphreason.rewards, graphreason.codec
step("import rewards, codec")
from graphreason import ChatClient
step("from graphreason import ChatClient")
import graphreason.cli
for argv in json.loads(sys.argv[1]):
    step(argv[0], graphreason.cli.main(argv))
graphreason.ResponseCache(sys.argv[2])
step("ResponseCache")
names = {}
exec("from graphreason import *", names)
print(json.dumps([steps, undir, sorted(set(graphreason.__all__) - set(names))]))
"""


def test_each_module_loads_on_first_use(tmp_path):
    golden = FIXTURES / "golden"
    runs = [
        ["score", "--completions", str(golden / "completions.jsonl"), "--out", str(tmp_path / "s.jsonl")],
        ["validate", str(FIXTURES / "case_study.txt")],
        ["build", "--sources", str(golden / "sources.jsonl"), "--out", str(tmp_path / "ds"),
         "--mock", str(golden / "mock.json"), "--k", "3"],
    ]
    done = run_python(IMPORT_BOUNDARY_SCRIPT, json.dumps(runs), str(tmp_path / "cache"))
    steps, undir, unstarred = json.loads(done.stdout.splitlines()[-1])
    client = ["graphreason.client"]
    assert steps == [
        ["import rewards, codec", None, []],
        ["from graphreason import ChatClient", None, client],
        ["score", 0, client],
        ["validate", 0, client],
        ["build", 0, client],
        ["ResponseCache", None, ["graphreason.client", "sqlite3"]],
    ]
    assert undir == unstarred == []
