"""The one reader per input format and per field type, and the one file writer.

``read_text`` reads template text and config files and ``read_jsonl``
one record per line; each gives what it decoded with a problem, None
when the input was well-formed, so bytes that are not UTF-8 are
reported like any other bad input and a caller that reads on past a bad
record keeps its own policy. ``read_json`` reads a whole JSON document
and ``read_records`` a JSONL file's objects, and each raises
``SchemaError`` at the first problem.

``Fields`` reads a decoded object with one reader per field type. Each
checks its field once and hands on a value of that type, and every
problem is one ``SchemaError`` whose message names the file, the line
or entry, and the field.

``atomic_write`` writes every output file, one chunk at a time, and
``jsonl_lines`` gives a record file's chunks, one line per record, so
writing holds one record at a time rather than the whole file. A
character with no UTF-8 form, a lone surrogate, is written as its
``\\uXXXX`` escape, which JSON reads back as the same character.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class SchemaError(ValueError):
    """An input file or record is not what its reader takes.

    The message names the file, the line or entry and, for a field, the
    field: ``<where>: missing field 'x'``, ``<where>: field 'x' must be
    ...`` or ``<where>: expected an object``.
    """


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


def read_json(path: str | Path) -> object:
    """A UTF-8 JSON file's value; SchemaError ``<path>: invalid JSON (...)`` otherwise."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except _UNDECODABLE as err:
        raise SchemaError(f"{path}: invalid JSON ({err})") from None


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


def read_records(path: str | Path) -> Iterator[tuple[int, Fields]]:
    """Yield ``(line number, Fields)`` for each record of a JSONL file of objects.

    A line that is not a JSON object raises SchemaError naming it.
    """
    for lineno, value, problem in read_jsonl(path):
        if problem is not None:
            raise SchemaError(f"{path}:{lineno}: {problem}")
        yield lineno, Fields(value, f"{path}:{lineno}")


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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_label(value: object) -> bool:
    return isinstance(value, str) or _is_int(value) or (
        isinstance(value, float) and math.isfinite(value)
    )


class Fields:
    """One decoded JSON object, each field read by the one rule of its type.

    ``where`` names the record (``file:line``, or the file and its entry)
    and ``parent`` the field that holds it when it is nested, so an
    error names a list member ``options[0]`` and an object member
    ``options[A]``.
    """

    def __init__(self, raw: object, where: str, parent: str = "") -> None:
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: expected an object")
        self.raw, self.where, self.parent = raw, where, parent

    def _name(self, key: str | int) -> str:
        return f"{self.parent}[{key}]" if self.parent else f"{key}"

    def _read(self, key: str | int, kind: str, fits: Callable[[object], bool]):
        if key not in self.raw:
            raise SchemaError(f"{self.where}: missing field '{self._name(key)}'")
        if not fits(self.raw[key]):
            raise SchemaError(f"{self.where}: field '{self._name(key)}' must be {kind}")
        return self.raw[key]

    def text(self, key: str | int) -> str:
        """A string."""
        return self._read(key, "a string", lambda value: isinstance(value, str))

    def label(self, key: str | int) -> str:
        """A string, or a finite number that is not a bool, written as ``str`` writes it."""
        value = self._read(key, "a string or a finite number", _is_label)
        return value if isinstance(value, str) else str(value)

    def index(self, key: str | int) -> int:
        """An option index: an int that is not a bool."""
        return self._read(key, "an option index", _is_int)

    def id(self, default: str) -> str:
        """``default`` when "id" is absent or null, else a non-blank string or an int, as text."""
        if self.raw.get("id") is None:
            return default
        self._read("id", "a non-blank string or an integer", lambda value: _is_int(value) or (
            isinstance(value, str) and bool(value.strip())
        ))
        return self.label("id")

    def list(self, key: str | int) -> Fields:
        """A list, its members read as the fields ``key[0]``, ``key[1]``, ..."""
        members = self._read(key, "a list", lambda value: isinstance(value, list))
        return Fields(dict(enumerate(members)), self.where, self._name(key))

    def texts(self, key: str | int) -> list[str]:
        """A list of strings, each member read as the field ``key[i]``."""
        members = self.list(key)
        return [members.text(i) for i in members.raw]

    def object(self, key: str | int) -> Fields:
        """An object, its members read as the fields ``key[name]``."""
        members = self._read(key, "an object", lambda value: isinstance(value, dict))
        return Fields(members, self.where, self._name(key))

    def make(self, kind: Callable[..., T], *args, **kwargs) -> T:
        """``kind(*args, **kwargs)``; its ValueError, such as a blank text, names the record."""
        try:
            return kind(*args, **kwargs)
        except ValueError as err:
            raise SchemaError(f"{self.where}: {err}") from None


def check_non_empty(name: str, value: str) -> None:
    """Raise ValueError naming ``name`` when ``value`` is empty or only whitespace."""
    if not value.strip():
        raise ValueError(f"{name} must be non-empty")


def repeated_id(kind: str, ids: Iterable[str]) -> str | None:
    """The message for the first id in ``ids`` that an earlier one equals, or None."""
    seen: set[str] = set()
    for value in ids:
        if value in seen:
            return f"{kind} id {value!r} appears more than once"
        seen.add(value)
    return None
