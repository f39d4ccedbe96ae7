from __future__ import annotations

import json
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from graphreason.cli import RunConfig, build_parser, main, resolve_config
from graphreason.codec import STRICT, parse
from graphreason.prompts import TRAJECTORY_PROMPT

FIXTURES = Path(__file__).parent / "fixtures"

GOOD_DOC = (
    "<reasoning>\n"
    "<step> collect facts → compare options </step>\n"
    "<step> compare options → settle on four </step>\n"
    "</reasoning>\n"
    "<answer> 4 </answer>"
)


def write_mock(tmp_path: Path, replies: dict, default: str | None = None) -> Path:
    path = tmp_path / "mock.json"
    body: dict = {"replies": replies}
    if default is not None:
        body["default"] = default
    path.write_text(json.dumps(body))
    return path


def mock_args(tmp_path: Path, replies: dict, default: str | None = None) -> list[str]:
    return ["--mock", str(write_mock(tmp_path, replies, default))]


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

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.txt"]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_non_string_sample_fails_with_message(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"question": "q", "samples": [5, None]}))
        assert main(["merge", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: samples must be strings or null\n"


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
        rows = [json.loads(line) for line in (out_dir / "train.jsonl").read_text().splitlines()]
        assert rows[0]["label"] == "4"
        parse(rows[0]["graph_reasoning"], STRICT)
        report = json.loads((out_dir / "report.json").read_text())
        assert report["total_in"] == 3
        assert report["retained"] == 1

    def test_nothing_retained_exits_one(self, tmp_path):
        sources = tmp_path / "s.jsonl"
        sources.write_text(json.dumps({"question": "q1: only?", "label": "4"}) + "\n")
        args = mock_args(tmp_path, {}, default="never a template")
        assert main(["build", "--sources", str(sources), "--out", str(tmp_path / "o"), *args]) == 1


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
        assert (out_dir / "report.txt").is_file()
        records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
        assert [r["correct"] for r in records] == [True, False]

    def test_eval_directly_from_benchmark(self, tmp_path, capsys):
        bench_path = self.make_benchmark(tmp_path)
        args = mock_args(tmp_path, {}, default="4")
        assert main(["eval", "--benchmark", "aiw", "--path", str(bench_path),
                     "--paradigm", "direct", *args]) == 0
        assert "aiw" in capsys.readouterr().out

    def test_eval_needs_a_source(self, tmp_path, capsys):
        assert main(["eval", *mock_args(tmp_path, {})]) == 2
        assert "config error: items:" in capsys.readouterr().err


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
        assert "needs text and label" in capsys.readouterr().err

    def test_non_object_row_exits_one(self, tmp_path, capsys):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"text": GOOD_DOC, "label": "4"}) + "\n[1, 2]\n")
        assert main(["score", "--completions", str(completions)]) == 1
        assert capsys.readouterr().err == (
            f"error: {completions}:2: row needs text and label fields\n"
        )


class TestMockFile:
    @pytest.mark.parametrize(
        "body,problem",
        [
            ("{not json", "invalid JSON"),
            ("[]", "expected a JSON object"),
            ('{"replies": "why?"}', "replies must be an object"),
            ('{"default": ["x"]}', "default must be a string or null"),
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
