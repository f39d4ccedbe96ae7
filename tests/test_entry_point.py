"""The ``graphreason`` command run as a user runs it: in a fresh interpreter.

Each row is one run of ``python -m graphreason.cli`` in a real process,
so the exit code and the streams are the real ones. A row gives the
input file and its one line, the argv, and what the run must print.
"""
from __future__ import annotations

import json

import pytest

from _util import run_cli

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
