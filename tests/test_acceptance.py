"""Acceptance suite: one test per shipped guarantee, one line per verdict.

Each test records an ACCEPTANCE line when its checks pass; conftest
replays the lines in a summary section after the run, so a plain
``pytest tests/test_acceptance.py -v`` shows both the per-test verdict
and the per-criterion summary. A failed criterion reports through the
normal pytest FAILED line for its test.
"""
from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from _util import fail_first_attempts, random_candidate_output, random_output, reply_to
from conftest import record_acceptance
from graphreason.answers import answers_match, normalize_freeform
from graphreason.bench import (
    BenchmarkItem,
    BenchmarkScore,
    EvalReport,
    evaluate,
    load_benchmark,
    render_table,
    write_report,
)
from graphreason.client import (
    ChatClient,
    CompletionRequest,
    MockBackend,
    SamplingConfig,
)
from graphreason.codec import STRICT, StructuredOutput, parse, render
from graphreason.graph import export_dot, sinks
from graphreason.merge import CandidateSet, EdgelessMergeError, merge_deterministic
from graphreason.pipeline import (
    DISCARD_ALL_CANDIDATES_FAILED,
    SourceQA,
    build_dataset,
    trajectory_requests,
    write_dataset,
)
from graphreason.rewards import reward_answer, reward_format

FIXTURES = Path(__file__).parent / "fixtures"


def _pass(criterion: int, detail: str) -> None:
    record_acceptance(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


def quiet_client(backend: MockBackend, **kw) -> ChatClient:
    kw.setdefault("sleep", lambda _: None)
    return ChatClient(backend, **kw)


def chain_doc(tag: str, answer: str) -> str:
    return (
        "<reasoning>\n"
        f"<step> {tag} start → {tag} middle </step>\n"
        f"<step> {tag} middle → {tag} end </step>\n"
        "</reasoning>\n"
        f"<answer> {answer} </answer>"
    )


def test_criterion_01_round_trip_corpus():
    rng = random.Random(11)
    started = time.perf_counter()
    count = 1000
    for _ in range(count):
        output = random_output(rng, min_nodes=2, max_nodes=50)
        parsed = parse(render(output), STRICT)
        assert parsed.graph == output.graph
        assert parsed.answer == output.answer
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"round trips took {elapsed:.2f}s"
    _pass(1, f"{count} random render/parse round trips, 2-50 nodes, in {elapsed:.2f}s")


def test_criterion_02_case_study_document():
    text = (FIXTURES / "case_study.txt").read_text(encoding="utf-8")
    output = parse(text, STRICT)
    graph = output.graph
    assert graph.node_count == 9
    assert graph.edge_count == 8
    assert len(sinks(graph)) == 1
    dot = export_dot(graph, answer=output.answer)
    node_statements = [line for line in dot.splitlines() if "[label=" in line]
    edge_statements = [line for line in dot.splitlines() if " -> " in line]
    assert len(node_statements) == 9
    assert len(edge_statements) == 8
    _pass(2, "case study: 0 errors, 9 nodes/8 edges, single sink, DOT 9+8 statements")


def _criterion_03_corpus():
    rng = random.Random(33)
    labels = ["4", "5", "B", "six", "7.5"]
    answer_pool = ["4", "04", "4.0", "5", "B", "(B)", "six", "7.5", "8"]
    items: list[SourceQA] = []
    replies: dict[str, list[str]] = {}
    raw_answers: dict[str, list[tuple[int, str]]] = {}
    for i in range(200):
        source_id = f"q{i:03d}"
        question = f"{source_id}: question number {i}"
        label = rng.choice(labels)
        n_parseable = rng.choice([0, 2, 3, 4, 5, 5, 5])
        parseable_at = sorted(rng.sample(range(5), n_parseable))
        sample_texts = []
        answers: list[tuple[int, str]] = []
        for s in range(5):
            if s in parseable_at:
                answer = rng.choice(answer_pool)
                answers.append((s, answer))
                sample_texts.append(chain_doc(f"i{i}s{s}", answer))
            else:
                sample_texts.append(f"sample {s} refuses the format")
        items.append(SourceQA(question, label, source_id))
        replies[f"{source_id}:"] = sample_texts
        raw_answers[source_id] = answers
    return items, replies, raw_answers


def _brute_majority(answers: list[tuple[int, str]]) -> str:
    groups: dict[str, list[tuple[int, str]]] = {}
    for index, answer in answers:
        groups.setdefault(normalize_freeform(answer), []).append((index, answer))
    best_rank = None
    best_members = None
    for members in groups.values():
        rank = (-len(members), members[0][0])
        if best_rank is None or rank < best_rank:
            best_rank, best_members = rank, members
    return best_members[0][1]


def test_criterion_03_filter_matches_brute_force():
    items, replies, raw_answers = _criterion_03_corpus()
    expected_retained = set()
    for item in items:
        answers = raw_answers[item.source_id]
        if answers and answers_match(_brute_majority(answers), item.label):
            expected_retained.add(item.source_id)

    client = quiet_client(MockBackend(replies))
    config = SamplingConfig(model_name="mock-teacher", k=5)
    result = build_dataset(items, client, config)

    got_retained = {inst.provenance.source_id for inst in result.instances}
    assert got_retained == expected_retained
    for record in result.discards:
        if not raw_answers[record.source_id]:
            assert record.reason == DISCARD_ALL_CANDIDATES_FAILED
    assert result.report.total_in == 200
    _pass(
        3,
        f"200-item mock build: retained set ({len(got_retained)}) equals "
        "independent majority-vote oracle",
    )


def test_criterion_04_merge_properties():
    rng = random.Random(44)
    started = time.perf_counter()
    sets = 500
    edgeless = 0
    for _ in range(sets):
        pool = [f"fact {w} {i}" for i, w in enumerate("abcdefghij")]
        k = rng.randint(1, 7)
        candidates = [
            random_candidate_output(rng, pool, rng.choice(["yes", "no", "maybe"]))
            for _ in range(k)
        ]
        candidate_set = CandidateSet([(c, i) for i, c in enumerate(candidates)], "q")
        once = merge_deterministic(CandidateSet([(candidates[0], 0)], "q"))
        again = merge_deterministic(
            CandidateSet([(StructuredOutput(once.graph, once.answer), 0)], "q")
        )
        assert again.graph == once.graph
        assert again.answer == once.answer
        assert sinks(again.graph) == sinks(once.graph)

        try:
            merged = merge_deterministic(candidate_set)
        except EdgelessMergeError:
            edgeless += 1
            continue

        # The conclusion is the first sink of the lowest-index contributing candidate.
        first = candidates[merged.contributing_indices[0]]
        assert sinks(merged.graph) == sinks(first.graph)[:1]
        document = render(StructuredOutput(merged.graph, merged.answer))
        assert parse(document, STRICT).graph == merged.graph

        counts = Counter(normalize_freeform(c.answer) for c in candidates)
        assert counts[normalize_freeform(merged.answer)] == max(counts.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"merge property sweep took {elapsed:.2f}s"
    _pass(
        4,
        f"{sets} random candidate sets (k<=7): acyclic, renderable merges, sink "
        f"conclusions, maximal majorities, idempotent single-candidate merges, "
        f"{edgeless} edgeless merges refused, in {elapsed:.2f}s",
    )


def test_criterion_05_benchmark_ingestion_counts():
    root = os.environ.get("GRAPHREASON_BENCH_DATA")
    if not root:
        pytest.skip(
            "GRAPHREASON_BENCH_DATA not set; point it at a directory holding "
            "logiqa.jsonl, aiw.json, arlsat.json, medqa.jsonl and mathqa.json"
        )
    expected = {
        "logiqa": ("logiqa.jsonl", 1572),
        "aiw": ("aiw.json", 200),
        "arlsat": ("arlsat.json", 230),
        "medqa": ("medqa.jsonl", 1273),
        "mathqa": ("mathqa.json", 2985),
    }
    for name, (filename, want) in expected.items():
        items = load_benchmark(name, Path(root) / filename)
        assert len(items) == want, f"{name}: ingested {len(items)}, expected {want}"
        ids = [item.item_id for item in items]
        assert len(set(ids)) == len(ids), f"{name}: duplicate item ids"
    _pass(5, "benchmark ingestion counts match 1572/200/230/1273/2985")


def test_criterion_06_eval_report_determinism(tmp_path):
    items = [
        BenchmarkItem(f"b{i:02d}: question", "4", "aiw", f"aiw-{i}") for i in range(20)
    ]
    replies = {f"b{i:02d}:": ("4" if i < 13 else "9") for i in range(20)}
    config = SamplingConfig(model_name="mock-eval", k=5, temperature=0.9)

    report = evaluate(items, "direct", quiet_client(MockBackend(replies)), config)
    table = render_table(report)
    assert report.per_benchmark["aiw"] == BenchmarkScore(n=20, correct=13)
    assert "65.00" in table

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_report(evaluate(items, "direct", quiet_client(MockBackend(replies)), config), out_a)
    write_report(evaluate(items, "direct", quiet_client(MockBackend(replies)), config), out_b)
    for name in ("report.txt", "report.json", "records.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    mixed = EvalReport(
        paradigm="direct",
        model="mock-eval",
        per_benchmark={"aiw": BenchmarkScore(2, 2), "logiqa": BenchmarkScore(2, 1)},
    )
    assert "75.00" in render_table(mixed)
    _pass(6, "13/20 renders 65.00, reruns byte-identical, overall is unweighted mean (75.00)")


def _format_mutants() -> list[str]:
    base = chain_doc("m", "4")
    step = "<step> m start → m middle </step>"
    return [
        base.replace("<reasoning>\n", ""),
        base.replace("</reasoning>\n", ""),
        base.replace("\n<answer> 4 </answer>", ""),
        base.replace("<answer> 4 </answer>", "<answer></answer>"),
        base.replace("<answer> 4 </answer>", "<answer>   </answer>"),
        "<reasoning>\n<step> a → b </step>\n<step> b → a </step>\n"
        "</reasoning>\n<answer> 4 </answer>",
        base.replace(step, f"{step}\n{step}"),
        "<reasoning>\n<step> a → a </step>\n</reasoning>\n<answer> 4 </answer>",
        "Sure, here is the graph:\n" + base,
        base + "\nHope that helps!",
        "<reasoning>\n<step> a → b → c </step>\n</reasoning>\n<answer> 4 </answer>",
        "<reasoning>\n<step> a to b </step>\n</reasoning>\n<answer> 4 </answer>",
        "<reasoning>\n<step> → b </step>\n</reasoning>\n<answer> 4 </answer>",
        "<reasoning>\n<step> a <b> → c </step>\n</reasoning>\n<answer> 4 </answer>",
        base.replace("<reasoning>", "<REASONING>").replace("</reasoning>", "</REASONING>"),
        "<reasoning>\n</reasoning>\n<answer> 4 </answer>",
        base + "\n<answer> 5 </answer>",
        "<answer> 4 </answer>\n" + base,
        "",
        "<reasoning>\n<step> a → b\n</reasoning>\n<answer> 4 </answer>",
    ]


def test_criterion_07_reward_polarity():
    rng = random.Random(77)
    corpus = 300
    for _ in range(corpus):
        assert reward_format(render(random_output(rng, max_nodes=20))) == 1.0

    mutants = _format_mutants()
    assert len(mutants) == 20
    for mutant in mutants:
        assert reward_format(mutant) == 0.0, f"mutant unexpectedly parsed: {mutant[:60]!r}"

    pairs = json.loads((FIXTURES / "answer_pairs.json").read_text())["pairs"]
    assert len(pairs) == 50
    checked = 0
    for pair in pairs:
        candidate, label = pair["candidate"], pair["label"]
        if "<" in candidate or ">" in candidate or not candidate.strip():
            continue
        expected = 1.0 if answers_match(candidate, label) else 0.0
        assert reward_answer(f"<answer> {candidate} </answer>", label) == expected
        checked += 1
    _pass(
        7,
        f"format reward 1.0 on {corpus} renders, 0.0 on 20 mutants; "
        f"answer reward agrees with the matcher on {checked} frozen pairs",
    )


def test_criterion_08_transport_behavior():
    backend = MockBackend(default="ok")
    fail_first_attempts(backend, 2)
    request = CompletionRequest("sys", "probe", SamplingConfig(model_name="m"))
    retrying = quiet_client(backend)
    assert reply_to(retrying, request) == "ok"
    assert (backend.calls, retrying.stats.retries) == (3, 2)

    eight = trajectory_requests("what?", SamplingConfig(model_name="m", k=8))
    ordered = quiet_client(MockBackend({"Question:": [f"reply {i}" for i in range(8)]}))
    [(_, samples)] = ordered.replies([eight], lambda requests: requests)
    assert samples == [f"reply {i}" for i in range(8)]

    bounded = MockBackend(default="ok", delay=0.005)
    client = quiet_client(bounded, concurrency=3)
    list(client.replies([eight], lambda requests: requests))
    assert bounded.calls == 8
    assert bounded.max_concurrent <= 3
    assert client.stats.max_in_flight <= 3

    items, replies = _retainable_corpus(12)
    built = MockBackend(replies, delay=0.005)
    client = quiet_client(built, concurrency=3)
    result = build_dataset(items, client, SamplingConfig(model_name="m", k=3))
    assert result.report.retained == 12
    assert built.calls == 36
    assert built.max_concurrent <= 3
    assert client.stats.max_in_flight <= 3

    questions = [BenchmarkItem(f"e{i:02d}: what?", "4", "aiw", f"e{i:02d}") for i in range(24)]
    evaluated = MockBackend({f"e{i:02d}:": "4" for i in range(24)}, delay=0.005)
    client = quiet_client(evaluated, concurrency=3)
    report = evaluate(questions, "direct", client, SamplingConfig(model_name="m"))
    assert report.per_benchmark["aiw"].correct == 24
    assert evaluated.calls == 24
    assert evaluated.max_concurrent <= 3
    assert client.stats.max_in_flight <= 3
    _pass(8, "retry reaches attempt 3, k=8 samples index-true, in-flight stayed <= 3 "
             "in sampling, build and eval")


def _retainable_corpus(n: int) -> tuple[list[SourceQA], dict[str, str]]:
    items = [SourceQA(f"s{i:02d}: question {i}", "4", f"s{i:02d}") for i in range(n)]
    replies = {f"s{i:02d}:": chain_doc(f"s{i}", "4") for i in range(n)}
    return items, replies


def test_criterion_09_split_reproducibility():
    items, replies = _retainable_corpus(10)
    config = SamplingConfig(model_name="mock-teacher", k=2)

    def run():
        client = quiet_client(MockBackend(replies))
        return build_dataset(items, client, config, split_seed=42)

    first, second = run(), run()
    assert first.report.split_sizes == {"train": 9, "valid": 1}
    assert [i.question for i in first.train] == [i.question for i in second.train]
    assert [i.question for i in first.valid] == [i.question for i in second.valid]
    _pass(9, "two seed-42 builds: identical 9:1 train/valid membership")


def test_criterion_10_end_to_end_build(tmp_path):
    items, replies = _retainable_corpus(10)
    replies["s03:"] = "refuses the format"          # parse discard
    replies["s07:"] = chain_doc("s7", "9")          # wrong answer discard
    config = SamplingConfig(model_name="mock-teacher", k=3)

    started = time.perf_counter()
    result = build_dataset(items, quiet_client(MockBackend(replies)), config)
    paths = write_dataset(result, tmp_path / "dataset")
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"build took {elapsed:.2f}s"

    rows = 0
    for side in ("train", "valid"):
        for line in paths[side].read_text().splitlines():
            row = json.loads(line)
            parse(row["graph_reasoning"], STRICT)
            rows += 1
    report = result.report
    assert report.total_in == 10
    assert report.retained == rows == 8
    assert report.total_in == report.retained + sum(report.discarded_by_reason.values())
    assert sum(report.split_sizes.values()) == report.retained
    written = json.loads(paths["report"].read_text())
    assert written["total_in"] == 10
    _pass(
        10,
        f"10-question mock build in {elapsed:.2f}s: all emitted rows strict-parse, "
        "accounting identity holds",
    )
