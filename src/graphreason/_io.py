"""Small record-reading and file-writing helpers shared by the pipeline and the harness."""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable


def atomic_write_text(path: Path, content: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def jsonl_dumps(records: Iterable[dict]) -> str:
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records]
    return "".join(line + "\n" for line in lines)


def record_id(raw: dict, default: str) -> str:
    """A record's "id" field as text, or ``default`` when it is absent or null."""
    value = raw.get("id")
    return default if value is None else str(value)
