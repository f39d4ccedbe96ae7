"""Golden bytes: build, evaluate and score a fixed mock fixture, compare every file written.

The inputs under ``fixtures/golden`` are scripted so that the three merge
modes between them reach every discard reason (all-candidates-failed by
transport errors and by unparseable replies), and the evaluation covers
strict, lenient-only, cue-only, wrong and failed replies. The expected
files under ``fixtures/golden/expected`` were written by ``write_outputs``;
a refactor that claims unchanged behaviour must pass this test unchanged.
To regenerate after a deliberate output change, run from the repo root::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden; test_golden.write_outputs(test_golden.EXPECTED)"
"""
from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest

from graphreason.bench import PARADIGMS, evaluate, read_items, write_report
from graphreason.client import ChatClient, MockBackend, SamplingConfig
from graphreason.merge import MERGE_MODES
from graphreason.pipeline import DISCARD_REASONS, build_dataset, read_sources, write_dataset
from graphreason.rewards import score_batch

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
EXPECTED = GOLDEN / "expected"
CONFIG = SamplingConfig(model_name="mock-teacher", k=3)


def client() -> ChatClient:
    return ChatClient(MockBackend.from_file(GOLDEN / "mock.json"), concurrency=2, sleep=lambda _: None)


def write_outputs(out: Path) -> None:
    """Write every golden output under ``out``, one directory per run."""
    out = Path(out)
    sources = read_sources(GOLDEN / "sources.jsonl")
    for mode in MERGE_MODES:
        with client() as chat:
            write_dataset(build_dataset(sources, chat, CONFIG, merge_mode=mode), out / f"build-{mode}")
    items = read_items(GOLDEN / "items.jsonl")
    for paradigm in PARADIGMS:
        with client() as chat:
            write_report(evaluate(items, paradigm, chat, CONFIG), out / f"eval-{paradigm}")
    rows = [json.loads(line) for line in (GOLDEN / "completions.jsonl").read_text("utf-8").splitlines()]
    scores = score_batch([row["text"] for row in rows], [row["label"] for row in rows])
    (out / "score.jsonl").write_text(
        "".join(json.dumps({"index": i, **s.to_dict()}, sort_keys=True) + "\n" for i, s in enumerate(scores)),
        encoding="utf-8",
    )


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, bytes]:
    out = tmp_path_factory.mktemp("golden")
    logging.disable(logging.WARNING)
    try:
        write_outputs(out)
    finally:
        logging.disable(logging.NOTSET)
    return tree(out)


def test_every_written_file_matches_the_golden_bytes(written):
    expected = tree(EXPECTED)
    assert sorted(written) == sorted(expected)
    for name, body in expected.items():
        assert written[name] == body, name


def test_the_fixture_reaches_every_discard_reason(written):
    reached: dict[str, set[str]] = {}
    for mode in MERGE_MODES:
        report = json.loads(written[f"build-{mode}/report.json"])
        for discard in report["discards"]:
            reached.setdefault(discard["reason"], set()).add(discard["detail"].split(":")[0])
        assert report["split_sizes"]["valid"] >= 1
    assert set(reached) == set(DISCARD_REASONS)
    # All-candidates-failed by transport errors and by unparseable replies.
    assert reached["all-candidates-failed"] == {"all 3 samples failed", "no sample parsed as a reasoning template"}
