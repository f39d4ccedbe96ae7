from __future__ import annotations

import os
import stat

import pytest

from graphreason._io import SchemaError, atomic_write, read_json, read_jsonl


def test_each_chunk_is_written_with_its_surrogates_escaped(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    atomic_write(path, ["é ", "x\ud800", "\udc00y\n"])
    assert path.read_bytes() == "é x\\ud800\\udc00y\n".encode("utf-8")


def test_a_failing_source_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write(path, chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


@pytest.mark.parametrize("umask, rewrite, mode", [
    (0o022, False, 0o644),
    (0o022, True, 0o644),
    (0o077, False, 0o600),
], ids=["umask-022-new", "umask-022-rewrite", "umask-077-new"])
def test_a_written_file_gets_the_permissions_of_a_plain_write(tmp_path, umask, rewrite, mode):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        if rewrite:
            path.write_text("old\n")
        atomic_write(path, ["new\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "new\n"



@pytest.mark.parametrize("body", [
    "[" + "9" * 5000 + "]",  # past the default limit on converting digits to an int
    "[" * 100_000 + "]" * 100_000,  # past the interpreter's recursion limit
], ids=["long-integer", "deep-nesting"])
def test_json_that_cannot_be_decoded_is_a_problem_not_a_crash(tmp_path, body):
    path = tmp_path / "doc.json"
    path.write_text(body + "\n")
    with pytest.raises(SchemaError) as err:
        read_json(path)
    assert str(err.value).startswith(f"{path}: invalid JSON (")
    [(lineno, value, problem)] = read_jsonl(path)
    assert (lineno, value) == (1, None) and problem.startswith("invalid JSON (")
