"""The ``graphreason`` command run as a user runs it: in a fresh interpreter.

Each row is one run of ``python -m graphreason.cli`` in a real process,
so the exit code and the streams are the real ones. A bad-input row
gives the input file and its one line, the argv, and what the run must
print. The walkthrough rows run the README's own fixture through the
store: two builds with one ``--cache-dir``, a rebuild from a corrupt
store, and an LLM-merge build cold then warm; one more row runs the
walkthrough's other commands on those files. The interrupted-build rows
send SIGINT to a build whose teacher is slow, and check that it exits
at once, with code 130 and one line, and keeps what came back; a rerun
then sends only the rest and writes what an uninterrupted build writes.
"""
from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _util import checkout_env, corrupt_store, run_cli, stored_keys

MOCK = {"default": "<reasoning>\n<step> a → b </step>\n</reasoning>\n<answer> 4 </answer>"}
BUILD = ["build", "--out", "out/", "--mock", "mock.json", "--sources"]

# A bad input file per reader: the argv, to which the file's name is added,
# the file's name, its one line, and the field that the one error line names.
BAD_INPUT = {
    "null-question": (BUILD, "null-question.jsonl", '{"question": null, "label": "4"}', "question"),
    # Python's json reads NaN, which is no label.
    "nan-label": (BUILD, "nan-label.jsonl", '{"question": "q1: what?", "label": NaN}', "label"),
    "logiqa-number-text": (
        ["ingest", "--benchmark", "logiqa", "--out", "out/items.jsonl", "--path"], "logiqa.jsonl",
        '{"text": 5, "question": "q?", "options": ["x", "y"], "answer": 0}', "text",
    ),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_a_bad_input_file_is_one_error_line_and_no_traceback(tmp_path, case):
    argv, name, line, field = BAD_INPUT[case]
    (tmp_path / "mock.json").write_text(json.dumps(MOCK))
    (tmp_path / name).write_text(line + "\n")
    result = run_cli(*argv, name, cwd=tmp_path)
    assert result.returncode == 1
    errors = [entry for entry in result.stderr.splitlines() if entry.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {name}:1: field '{field}' must be ")
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_merge_refuses_a_blank_question(tmp_path):
    samples = {"question": " \t", "samples": [MOCK["default"]]}
    (tmp_path / "samples.json").write_text(json.dumps(samples))
    result = run_cli("merge", "samples.json", cwd=tmp_path)
    assert result.returncode == 1
    errors = [entry for entry in result.stderr.splitlines() if entry.startswith("error:")]
    assert errors == ["error: samples.json: question must be non-empty"]
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_sample_refuses_a_blank_question_before_building_a_client(tmp_path):
    (tmp_path / "mock.json").write_text(json.dumps(MOCK))
    result = run_cli("sample", "  ", "--mock", "mock.json", "--k", "1", "--cache-dir", "cache",
                     cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["error: question must be non-empty"]
    assert result.stdout == ""
    # The client's store is made with the client, so no store means no send.
    assert not (tmp_path / "cache").exists()


def dataset(out: Path) -> dict[str, bytes]:
    """The bytes of each file a build writes into ``out``."""
    names = ("train.jsonl", "valid.jsonl", "report.json")
    return {name: (out / name).read_bytes() for name in names}


# A build whose teacher answers sample 0 of each question at once and every
# other send slowly: after 3 s (argv[1] "slow") or by a 429 asking for a
# 10 s wait (argv[1] "429"). It touches `sending` as a slow send starts and
# appends the store key of each reply it returns to `returned`. The "fast"
# teacher answers every send at once and appends its key to `sent` instead.
STOPPED_BUILD = """
import sys, time
from graphreason import cli, client

class Teacher(client.MockBackend):
    def send(self, request):
        if sys.argv[1] == "fast":
            with open("sent", "a") as sent:
                sent.write(client.cache_key(request) + "\\n")
            return super().send(request)
        if request.sample_index:
            open("sending", "w").close()
            if sys.argv[1] == "slow":
                time.sleep(3)
            else:
                raise client.TransientError("scripted 429", status=429, retry_after=10.0)
        text = super().send(request)
        with open("returned", "a") as returned:
            returned.write(client.cache_key(request) + "\\n")
        return text

cli.MockBackend = Teacher
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("teacher", ["slow", "429"])
def test_an_interrupted_build_exits_at_once_and_keeps_what_came_back(tmp_path, teacher):
    (tmp_path / "mock.json").write_text(json.dumps(MOCK))
    sources = [json.dumps({"question": f"q{i}: what?", "label": "4"}) for i in range(4)]
    (tmp_path / "sources.jsonl").write_text("\n".join(sources) + "\n")
    argv = [*BUILD, "sources.jsonl", "--k", "3", "--concurrency", "2", "--cache-dir", "cache"]
    started = time.monotonic()
    run = subprocess.Popen([sys.executable, "-c", STOPPED_BUILD, teacher, *argv], cwd=tmp_path,
                           env=checkout_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
    try:
        while not (tmp_path / "sending").exists():
            assert run.poll() is None and time.monotonic() - started < 60
            time.sleep(0.01)
        time.sleep(max(0.0, started + 0.5 - time.monotonic()))
        run.send_signal(signal.SIGINT)
        # Each slow send started before the signal would take 3 s or 30 s more.
        _, stderr = run.communicate(timeout=1.0)
    finally:
        run.kill()
        run.communicate()
    assert run.returncode == 130
    # Besides the 429 teacher's one logged line per retry, the stop is one line.
    retry = "WARNING graphreason.client: transient failure (scripted 429)"
    assert [line for line in stderr.splitlines() if not line.startswith(retry)] == ["interrupted"]
    returned = set((tmp_path / "returned").read_text().split())
    assert returned and stored_keys(tmp_path / "cache") == returned
    assert not (tmp_path / "out").exists()
    # The rerun sends only what did not come back, and writes what a build
    # that was never stopped writes.
    rerun = subprocess.run([sys.executable, "-c", STOPPED_BUILD, "fast", *argv], cwd=tmp_path,
                           env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert rerun.returncode == 0, rerun.stderr
    sent = set((tmp_path / "sent").read_text().split())
    assert not sent & returned and len(sent | returned) == len(sources) * 3
    assert stored_keys(tmp_path / "cache") == sent | returned
    fresh = ["build", "--out", "fresh/", "--mock", "mock.json", "--sources", "sources.jsonl",
             "--k", "3", "--cache-dir", "fresh-cache"]
    assert run_cli(*fresh, cwd=tmp_path).returncode == 0
    assert dataset(tmp_path / "out") == dataset(tmp_path / "fresh")


# The README walkthrough's store runs: the README's mock.json and sources.jsonl,
# built twice into dataset/ with one --cache-dir, as a user who reruns a build does.
README = Path(__file__).parent.parent / "README.md"
README_BUILD = [
    "build", "--sources", "sources.jsonl", "--mock", "mock.json", "--k", "3", "--seed", "7",
]


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory) -> tuple[Path, list[subprocess.CompletedProcess]]:
    root = tmp_path_factory.mktemp("walkthrough")
    setup = re.search(r"```sh\n(cat > mock\.json.*?)```", README.read_text("utf-8"), re.S).group(1)
    subprocess.run(["bash", "-euo", "pipefail", "-c", setup], cwd=root, check=True, timeout=60)
    runs = [run_cli(*README_BUILD, "--out", "dataset/", "--cache-dir", "cache/", cwd=root)
            for _ in range(2)]
    return root, runs


def test_two_cache_dir_builds_of_the_walkthrough_succeed(walkthrough):
    _, runs = walkthrough
    assert [run.returncode for run in runs] == [0, 0]
    assert not any("Traceback" in run.stderr for run in runs)


def test_lenient_only_samples_are_one_count_on_stdout_not_a_warning(walkthrough):
    _, (first, _) = walkthrough
    assert re.search(r"^lenient-only samples: [0-9]+$", first.stdout, re.M)
    assert "accepted only under lenient parsing" not in first.stderr


def test_a_store_of_rows_that_are_not_utf8_is_requested_again_with_the_same_files(walkthrough):
    # Each read is a miss, the completions are requested again, and the rebuild
    # writes the same files.
    root, _ = walkthrough
    assert corrupt_store(root / "cache", b"\xff not utf-8") > 0
    result = run_cli(*README_BUILD, "--out", "dataset-corrupt/", "--cache-dir", "cache/", cwd=root)
    assert result.returncode == 0
    assert dataset(root / "dataset-corrupt") == dataset(root / "dataset")


def test_an_llm_merge_build_runs_cold_then_warm(walkthrough):
    root, _ = walkthrough
    argv = [*README_BUILD, "--out", "dataset-llm/", "--merge-mode", "llm-with-fallback",
            "--cache-dir", "cache-llm/"]
    cold = run_cli(*argv, cwd=root)
    cold_files = dataset(root / "dataset-llm")
    warm = run_cli(*argv, cwd=root)
    assert (cold.returncode, warm.returncode) == (0, 0)
    assert dataset(root / "dataset-llm") == cold_files
    assert run_cli("validate", "dataset-llm/train.jsonl", cwd=root).returncode == 0


# The rest of the README walkthrough, run in order on the fixture's files.
WALKTHROUGH_COMMANDS = [
    ["sample", "What is 2 + 2?", "--mock", "mock.json", "--k", "3", "--seed", "7",
     "--out", "samples.json"],
    ["merge", "samples.json"],
    ["merge", "samples.json", "--merge-mode", "llm-with-fallback", "--mock", "mock.json"],
    ["merge", "samples.json", "--merge-mode", "llm", "--mock", "mock.json"],
    ["validate", "dataset/train.jsonl"],
    ["viz", "dataset/train.jsonl", "--out-dir", "dots/"],
    ["score", "--completions", "dataset/train.jsonl", "--out", "scores.jsonl"],
    ["eval", "--items", "items.jsonl", "--mock", "mock.json", "--paradigm", "self-graph",
     "--out", "results/"],
]


def test_the_walkthrough_commands_exit_0_without_a_traceback(walkthrough):
    root, _ = walkthrough
    # eval over an items file, with the mock's default reply.
    item = {"question": "What is 3 + 3?", "label": "6", "benchmark": "demo", "item_id": "d1"}
    (root / "items.jsonl").write_text(json.dumps(item) + "\n")
    for argv in WALKTHROUGH_COMMANDS:
        result = run_cli(*argv, cwd=root)
        assert result.returncode == 0 and "Traceback" not in result.stderr, (argv, result.stderr)
    assert (root / "results" / "report.txt").stat().st_size > 0
