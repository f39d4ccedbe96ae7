"""One property per input reader: one field of a valid record set to any JSON value.

Each reader is given a valid record with one field replaced by any JSON
value (null, a bool, an int, a float including NaN and infinity, a
list, an object or any unicode string) or removed. It either returns
what the record says, each text equal to the input string it came from,
or stops with one error that names the file, the line or entry, and the
field. A value of another type is never turned into text.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason import cli
from graphreason.bench import ADAPTERS, SchemaError, read_items
from graphreason.client import MockBackend
from graphreason.pipeline import read_sources

GOOD_DOC = "<reasoning>\n<step> a → b </step>\n</reasoning>\n<answer> 4 </answer>"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(("", " ", "a", "B", "4", GOOD_DOC)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("A", "B", "C", "x")) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=6,
)
_DROP = object()


# What a field of each kind takes; a record whose changed field is refused
# must not be read.
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_texts(value) -> bool:
    return isinstance(value, list) and all(isinstance(member, str) for member in value)


TAKES: dict[str, Callable[[object], bool]] = {
    "text": lambda value: isinstance(value, str),
    "label": lambda value: isinstance(value, str) or _is_int(value) or (
        isinstance(value, float) and math.isfinite(value)
    ),
    "id": lambda value: value is None or _is_int(value) or (
        isinstance(value, str) and bool(value.strip())
    ),
    "index": _is_int,
    "letter": lambda value: isinstance(value, str),
    "index-or-letter": lambda value: _is_int(value) or isinstance(value, str),
    "texts": _is_texts,
    "options-object": lambda value: isinstance(value, dict) and _is_texts(list(value.values())),
    "samples": lambda value: isinstance(value, list) and all(
        member is None or isinstance(member, str) for member in value
    ),
    "replies": lambda value: isinstance(value, dict) and all(
        isinstance(reply, str) or (_is_texts(reply) and reply) for reply in value.values()
    ),
    "optional-text": lambda value: value is None or isinstance(value, str),
}


@dataclass
class Reader:
    """A reader, the valid record it is given, the kind of each field, and where it is."""

    record: dict
    kinds: dict[str, str]
    where: str
    write: Callable[[Path, dict], None]
    # The texts read, or raises SchemaError.
    read: Callable[[Path], list[str]]
    optional: tuple[str, ...] = ("id",)
    # A field whose options the changed field holds, which may then name none of them.
    answer: str | None = None


def _jsonl(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record) + "\n")


def _array(path: Path, record: dict) -> None:
    path.write_text(json.dumps([record]))


def _document(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record))


def _items(load) -> Callable[[Path], list[str]]:
    def read(path: Path) -> list[str]:
        return [text for item in load(path)
                for text in (item.question, item.label, item.benchmark, item.item_id)]
    return read


def _sources(path: Path) -> list[str]:
    return [text for item in read_sources(path)
            for text in (item.question, item.label, item.source_id)]


def _run(argv: list[str]) -> str:
    """Run a command: its stdout, or its one ``error:`` line as the message of a SchemaError."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        raise SchemaError(lines[0].removeprefix("error: "))
    return out.getvalue()


def _merge(path: Path) -> list[str]:
    # A sample set that is read but does not merge fails after the reader.
    with mock.patch.object(cli, "parse_candidates", wraps=cli.parse_candidates) as parsed, \
            mock.patch.object(cli, "CandidateSet", wraps=cli.CandidateSet) as made:
        try:
            _run(["merge", str(path)])
        except SchemaError:
            if not parsed.called:
                raise
    texts = [text for text in parsed.call_args.args[0] if text is not None]
    return texts + ([made.call_args.kwargs["question"]] if made.called else [])


def _score(path: Path) -> list[str]:
    texts: list[str] = []
    with mock.patch.object(cli, "score_batch", wraps=cli.score_batch) as scored:
        _run(["score", "--completions", str(path)])
    for arg in scored.call_args.args[:2]:
        texts.extend(arg)
    return texts


def _template(path: Path) -> list[str]:
    [(_, row, _)] = cli.read_jsonl(path)
    return [cli.template_text(cli.Fields(row, f"{path}:1"))]


def _mock(path: Path) -> list[str]:
    backend = MockBackend.from_file(path)
    replies = [text for reply in backend.replies.values()
               for text in ([reply] if isinstance(reply, str) else reply)]
    return [*backend.replies, *replies, *([backend.default] if backend.default else [])]


ARLSAT = {"passage": "p.", "questions": [{"question": "q?", "options": ["x", "y"], "answer": "B"}]}

READERS = {
    "logiqa": Reader(
        {"text": "t.", "question": "q?", "options": ["x", "y"], "answer": 0, "id": "l1"},
        {"text": "text", "question": "text", "options": "texts", "answer": "index", "id": "id"},
        ":1", _jsonl, _items(ADAPTERS["logiqa"]), answer="answer",
    ),
    "aiw": Reader(
        {"prompt": "p?", "right_answer": 4, "id": 7},
        {"prompt": "text", "right_answer": "label", "id": "id"},
        ": item 1", _array, _items(ADAPTERS["aiw"]),
    ),
    "aiw_plus": Reader(
        {"prompt": "p?", "right_answer": "4"},
        {"prompt": "text", "right_answer": "label", "id": "id"},
        ": item 1", _array, _items(ADAPTERS["aiw_plus"]),
    ),
    "arlsat": Reader(
        ARLSAT["questions"][0],
        {"question": "text", "options": "texts", "answer": "index-or-letter", "id": "id"},
        ": passage 1 question 1",
        lambda path, record: path.write_text(json.dumps([{**ARLSAT, "questions": [record]}])),
        _items(ADAPTERS["arlsat"]), answer="answer",
    ),
    "arlsat-passage": Reader(
        ARLSAT, {"passage": "text"}, ": passage 1", _array, _items(ADAPTERS["arlsat"]),
    ),
    "medqa": Reader(
        {"question": "q?", "options": {"A": "x", "B": "y"}, "answer_idx": "A"},
        {"question": "text", "options": "options-object", "answer_idx": "letter", "id": "id"},
        ":1", _jsonl, _items(ADAPTERS["medqa"]), answer="answer_idx",
    ),
    "mathqa": Reader(
        {"Problem": "p?", "options": "a ) 1 , b ) 2", "correct": "b"},
        {"Problem": "text", "options": "text", "correct": "letter", "id": "id"},
        ": item 1", _array, _items(ADAPTERS["mathqa"]), answer="correct",
    ),
    "read_sources": Reader(
        {"question": "q?", "label": "4", "id": "s1"},
        {"question": "text", "label": "label", "id": "id"},
        ":1", _jsonl, _sources,
    ),
    "read_items": Reader(
        {"question": "q?", "label": "4", "benchmark": "demo", "item_id": "d1"},
        {"question": "text", "label": "label", "benchmark": "text", "item_id": "text"},
        ":1", _jsonl, _items(read_items), optional=(),
    ),
    "merge": Reader(
        {"question": "q?", "samples": [GOOD_DOC, None]},
        {"question": "text", "samples": "samples"},
        "", _document, _merge, optional=(),
    ),
    "score": Reader(
        {"text": GOOD_DOC, "label": "4"},
        {"text": "text", "label": "label"},
        ":1", _jsonl, _score, optional=(),
    ),
    # Without its first template key, a row's next one is read.
    "template": Reader(
        {"completion": GOOD_DOC, "graph_reasoning": "next"},
        {"completion": "text"},
        ":1", _jsonl, _template, optional=("completion",),
    ),
    "mock": Reader(
        {"replies": {"q": "a", "r": ["b", "c"]}, "default": GOOD_DOC},
        {"replies": "replies", "default": "optional-text"},
        "", _document, _mock, optional=("replies", "default"),
    ),
}


def _expected(kind: str, value) -> list[str]:
    """The input strings a taken value must be read as, and a number as ``str`` writes it."""
    if kind in ("text", "label", "id", "optional-text"):
        return [] if value is None else [value if isinstance(value, str) else str(value)]
    if kind in ("texts", "samples"):
        return [member for member in value if member is not None]
    if kind == "options-object":
        return list(value.values())
    if kind == "replies":
        return [*value, *(text for reply in value.values()
                          for text in ([reply] if isinstance(reply, str) else reply))]
    return []  # an option index or letter is read as a letter


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_reader_reads_each_field_by_its_type_or_names_it(name, data):
    reader = READERS[name]
    key = data.draw(st.sampled_from(sorted(reader.kinds)), label="field")
    value = data.draw(st.just(_DROP) | JSON_VALUES, label="value")
    record = dict(reader.record)
    if value is _DROP:
        record.pop(key, None)
    else:
        record[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        reader.write(path, record)
        try:
            texts = reader.read(path)
        except SchemaError as err:
            message = str(err)
            assert message.startswith(f"{path}{reader.where}: "), message
            detail = message.removeprefix(f"{path}{reader.where}: ")
            # A blank text is refused by the record it would make, which names it,
            # and an answer may name none of the options the changed field holds.
            named = [key, *([reader.answer] if key == "options" and reader.answer else [])]
            assert any(f"'{name}" in detail for name in named) or detail.endswith(
                "must be non-empty"
            ), message
            return
    kind = reader.kinds[key]
    if value is _DROP:
        assert key in reader.optional
        return
    assert TAKES[kind](value), f"{key}={value!r} was read"
    blob = "\n".join(texts)
    for text in _expected(kind, value):
        assert text.strip() in blob
