"""The one reader per input format, and the one file writer.

``read_text`` reads template text and config files, ``read_json`` a
whole JSON document and ``read_jsonl`` one record per line. Each gives
what it decoded with a problem, None when the input was well-formed,
so bytes that are not UTF-8 are reported like any other bad input and
each caller keeps only its policy for a problem.

``atomic_write`` writes every output file, one chunk at a time, and
``jsonl_lines`` gives a record file's chunks, one line per record, so
writing holds one record at a time rather than the whole file. A
character with no UTF-8 form, a lone surrogate, is written as its
``\\uXXXX`` escape, which JSON reads back as the same character.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator


def read_text(path: str | Path) -> tuple[str | None, str | None]:
    """``(text, None)`` for a UTF-8 file, ``(None, "not UTF-8 text (...)")`` otherwise."""
    try:
        return Path(path).read_text(encoding="utf-8"), None
    except UnicodeDecodeError as err:
        return None, f"not UTF-8 text ({err})"


# Bytes that are not UTF-8 and text that is not JSON raise ValueErrors, and so
# does a number too long to convert to an int; nesting too deep to decode
# raises RecursionError.
_UNDECODABLE = (ValueError, RecursionError)


def read_json(path: str | Path) -> tuple[object, str | None]:
    """``(value, None)`` for a UTF-8 JSON file, ``(None, "invalid JSON (...)")`` otherwise."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), None
    except _UNDECODABLE as err:
        return None, f"invalid JSON ({err})"


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object, str | None]]:
    """Yield ``(line number, value, problem)`` for each non-blank line of a JSONL file.

    Lines break as in a text-mode read. A line that is not UTF-8 or not
    JSON has value None and problem ``invalid JSON (...)``.
    """
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            value = json.loads(line)
        except _UNDECODABLE as err:
            yield lineno, None, f"invalid JSON ({err})"
        else:
            yield lineno, value, None


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` in order, each as it arrives, surrogates escaped.

    The chunks go to a sibling temp file that is renamed over ``path``
    once the last is written, so readers never see a torn file and an
    error, in the chunks' source too, leaves ``path`` as it was. Only one
    chunk is held at a time: pass a whole document as one chunk, and a
    record file as ``jsonl_lines(records)``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # A surrogate has no UTF-8 form; the handler writes it as \uXXXX.
        with os.fdopen(fd, "w", encoding="utf-8", errors="backslashreplace") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_JSONL = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def jsonl_lines(records: Iterable[dict]) -> Iterator[str]:
    """Yield one JSON object per line, non-ASCII text as is, keys sorted."""
    for record in records:
        yield _JSONL.encode(record) + "\n"


def record_id(raw: dict, default: str) -> str:
    """A record's "id" field as text, or ``default`` when it is absent or null."""
    value = raw.get("id")
    return default if value is None else str(value)


def first_repeat(ids: Iterable[str]) -> str | None:
    """The first id in ``ids`` that an earlier one equals, or None when all differ."""
    seen: set[str] = set()
    for value in ids:
        if value in seen:
            return value
        seen.add(value)
    return None
