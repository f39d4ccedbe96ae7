"""Command line front-end.

Subcommands cover the whole workflow: validate and visualize template
documents, sample trajectories, merge candidates, build datasets,
ingest benchmarks, evaluate paradigms, and score completions.

Each setting is declared once, as a ``RunConfig`` field, which gives
its flag, environment variable (GRAPHREASON_<NAME>), config key, help,
type and check. Settings resolve with precedence: command line flag,
then environment variable, then config file (key = value lines), then
built-in defaults. The API credential is never a flag or a config key;
it is read from the environment variable named by ``--credential-env``
(default GRAPHREASON_API_KEY). Input files are read through ``_io``,
and each command applies its own policy to a problem it reports.

Exit codes: 0 success, 1 item-level failure (bad records, an input
file that cannot be decoded, failed merge, nothing retained), 2
configuration error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sqlite3
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, TextIO, get_args, get_type_hints

from ._io import atomic_write_text, jsonl_dumps, read_json, read_jsonl, read_text
from .bench import (
    BENCHMARKS,
    PARADIGM_SELF_GRAPH,
    PARADIGMS,
    BenchError,
    evaluate,
    load_benchmark,
    read_items,
    render_table,
    write_items,
    write_report,
)
from .client import (
    DEFAULT_CONCURRENCY,
    DEFAULT_CREDENTIAL_ENV,
    DEFAULT_K,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_NEW_TOKENS,
    DEFAULT_TEMPERATURE,
    ChatClient,
    ClientError,
    HttpBackend,
    MockBackend,
    ResponseCache,
    SamplingConfig,
    gather_trajectories,
)
from .codec import LENIENT, STRICT, StructuredOutput, TemplateParseError, parse, render
from .graph import InvalidGraphError, export_dot, validate
from .merge import MERGE_MODES, MODE_DETERMINISTIC, CandidateSet, MergeError
from .pipeline import (
    DEFAULT_SPLIT_SEED,
    PipelineError,
    build_dataset,
    parse_candidates,
    read_sources,
    run_merge,
    trajectory_requests,
    write_dataset,
)
from .rewards import check_weight, score_batch

log = logging.getLogger(__name__)

ENV_PREFIX = "GRAPHREASON_"
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

DEFAULT_MODEL = "teacher"


class ConfigError(Exception):
    """A setting is missing or malformed; ``field`` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _setting(default, help: str):
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Resolved settings shared by every subcommand, valid by construction.

    Each field is one setting, coerced to its annotated type: the flag
    ``--<name with dashes>`` (help in its metadata), the environment
    variable ``GRAPHREASON_<NAME>`` and the config key ``<name>``.
    """

    endpoint: str | None = _setting(None, "chat completions URL")
    credential_env: str = _setting(
        DEFAULT_CREDENTIAL_ENV,
        f"environment variable holding the API key (default {DEFAULT_CREDENTIAL_ENV})",
    )
    model: str = _setting(DEFAULT_MODEL, "model name sent to the endpoint")
    mock: str | None = _setting(None, "scripted-replies JSON file instead of a network backend")
    cache_dir: str | None = _setting(None, "completion cache directory")
    concurrency: int = _setting(
        DEFAULT_CONCURRENCY, "max in-flight requests; also sizes the client's thread pool"
    )
    retry_cap: int = _setting(DEFAULT_MAX_ATTEMPTS, "max attempts per request")
    k: int = _setting(DEFAULT_K, "samples per question")
    temperature: float = _setting(DEFAULT_TEMPERATURE, "sampling temperature")
    seed: int | None = _setting(None, "base sampling seed")
    max_new_tokens: int = _setting(DEFAULT_MAX_NEW_TOKENS, "completion token cap")
    merge_mode: str = _setting(MODE_DETERMINISTIC, f"one of {', '.join(MERGE_MODES)}")
    split_seed: int = _setting(DEFAULT_SPLIT_SEED, "train/valid shuffle seed")
    paradigm: str = _setting(PARADIGM_SELF_GRAPH, f"one of {', '.join(PARADIGMS)}")
    format_weight: float = _setting(1.0, "format reward weight")
    answer_weight: float = _setting(1.0, "answer reward weight")

    def __post_init__(self) -> None:
        if self.merge_mode not in MERGE_MODES:
            raise ConfigError("merge_mode", f"must be one of {', '.join(MERGE_MODES)}")
        if self.paradigm not in PARADIGMS:
            raise ConfigError("paradigm", f"must be one of {', '.join(PARADIGMS)}")
        for name in ("concurrency", "retry_cap", "k", "max_new_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be at least 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError("temperature", "must be between 0 and 2")
        for name in ("format_weight", "answer_weight"):
            try:
                check_weight(name, getattr(self, name))
            except ValueError as err:
                raise ConfigError(name, str(err)) from None


# Each setting's type, in field order: its annotation without None.
_SETTING_TYPES: dict[str, type] = {
    name: next(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
}


def _coerce(name: str, raw, kind: type):
    if kind is str:
        return str(raw)
    try:
        return kind(str(raw).strip())
    except ValueError:
        label = "integer" if kind is int else "number"
        raise ConfigError(name, f"invalid {label} {raw!r}") from None


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError("config", f"{path}: no such file")
    text, problem = read_text(path)
    if problem is not None:
        raise ConfigError("config", f"{path}: {problem}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        if key not in _SETTING_TYPES:
            raise ConfigError(key, f"unknown config key ({path}:{lineno})")
        values[key] = value
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer flag, environment, config file and default values."""
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    file_values = _read_config_file(Path(config_path)) if config_path else {}
    values = {}
    for name, kind in _SETTING_TYPES.items():
        raw = getattr(args, name, None)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            continue
        values[name] = _coerce(name, raw, kind)
    return RunConfig(**values)


def make_client(cfg: RunConfig) -> ChatClient:
    if cfg.mock:
        try:
            backend = MockBackend.from_file(cfg.mock)
        except ValueError as err:
            raise ConfigError("mock", str(err)) from None
    else:
        if not cfg.endpoint:
            raise ConfigError("endpoint", "required unless --mock is given")
        backend = HttpBackend(cfg.endpoint, credential_env=cfg.credential_env)
    try:
        cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    except sqlite3.Error as err:
        raise ConfigError("cache_dir", f"{cfg.cache_dir}: {err}") from None
    return ChatClient(
        backend, cache=cache, concurrency=cfg.concurrency, max_attempts=cfg.retry_cap
    )


def make_sampling_config(cfg: RunConfig) -> SamplingConfig:
    return SamplingConfig(
        model_name=cfg.model,
        temperature=cfg.temperature,
        k=cfg.k,
        max_new_tokens=cfg.max_new_tokens,
        seed=cfg.seed,
    )


def read_template_records(path: Path) -> Iterator[tuple[str, str | None, str | None]]:
    """Yield (where, template text, problem) rows from a text or JSONL file.

    A .jsonl file contributes one record per line, taking the template
    from the graph_reasoning (or text) field; any other file is one
    record holding the whole file body. A row with a problem has no text.
    """
    if path.suffix != ".jsonl":
        yield str(path), *read_text(path)
        return
    for lineno, row, problem in read_jsonl(path):
        text = row.get("graph_reasoning", row.get("text")) if isinstance(row, dict) else None
        if not isinstance(text, str):
            text, problem = None, problem or "no graph_reasoning or text field"
        yield f"{path}:{lineno}", text, problem


def parse_template_records(paths: list[str], lenient: bool, failures_to: TextIO, on_parsed) -> int:
    """Hand each parsed template record of ``paths`` to ``on_parsed(where, output)``, in order.

    A record that cannot be read or parsed prints one line to
    ``failures_to`` instead, and makes the exit code 1.
    """
    mode = LENIENT if lenient else STRICT
    failures = 0
    for path in paths:
        for where, text, problem in read_template_records(Path(path)):
            if problem is None:
                try:
                    output = parse(text, mode)
                except TemplateParseError as err:
                    problem = f"parse error: {err.kind} ({err.detail})"
                else:
                    on_parsed(where, output)
                    continue
            print(f"{where}: {problem}", file=failures_to)
            failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: RunConfig) -> int:
    def report(where: str, output: StructuredOutput) -> None:
        graph = output.graph
        diagnostics = validate(graph)
        # A parsed graph is a DAG by construction: it carries no error.
        line = f"{where}: {graph.node_count} nodes, {graph.edge_count} edges, 0 errors"
        if diagnostics.warnings:
            line += f", {len(diagnostics.warnings)} warnings"
        print(line)
        for warning in diagnostics.warnings:
            print(f"  warning: {warning.kind}: {warning.detail}")

    return parse_template_records(args.paths, args.lenient, sys.stdout, report)


def cmd_viz(args: argparse.Namespace, cfg: RunConfig) -> int:
    in_path = Path(args.path)

    def write_dot(where: str, output: StructuredOutput) -> None:
        if in_path.suffix == ".jsonl":
            # A record's where ends in its line number.
            name = f"{in_path.stem}-{where.rsplit(':', 1)[1]}.dot"
        else:
            name = f"{in_path.stem}.dot"
        out_path = Path(args.out_dir) / name
        atomic_write_text(out_path, export_dot(output.graph, answer=output.answer))
        print(out_path)

    return parse_template_records([args.path], args.lenient, sys.stderr, write_dot)


def cmd_sample(args: argparse.Namespace, cfg: RunConfig) -> int:
    config = make_sampling_config(cfg)
    with make_client(cfg) as client:
        requests = trajectory_requests(args.question, config)
        samples = gather_trajectories([client.submit(request) for request in requests])
    failure = samples.all_failed_detail()
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_FAILURE
    payload = {
        "question": args.question,
        "samples": samples.texts,
        "errors": {str(i): message for i, message in sorted(samples.errors.items())},
    }
    body = json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(Path(args.out), body)
        print(f"wrote {args.out} ({len(samples.successful())}/{config.k} samples)")
    else:
        print(body, end="")
    return EXIT_OK


def cmd_merge(args: argparse.Namespace, cfg: RunConfig) -> int:
    data, problem = read_json(args.input)
    if problem is not None:
        print(f"error: {args.input}: {problem}", file=sys.stderr)
        return EXIT_FAILURE
    if not isinstance(data, dict) or "question" not in data:
        print(f"error: {args.input}: expected an object with question and samples", file=sys.stderr)
        return EXIT_FAILURE
    texts = data.get("samples", data.get("candidates"))
    if not isinstance(texts, list):
        print(f"error: {args.input}: samples must be a list", file=sys.stderr)
        return EXIT_FAILURE
    if not all(text is None or isinstance(text, str) for text in texts):
        print(f"error: {args.input}: samples must be strings or null", file=sys.stderr)
        return EXIT_FAILURE

    candidates = parse_candidates(texts)
    if not candidates:
        print("error: no sample parsed as a reasoning template", file=sys.stderr)
        return EXIT_FAILURE
    candidate_set = CandidateSet(candidates, question=str(data["question"]))

    llm = cfg.merge_mode != MODE_DETERMINISTIC
    try:
        with make_client(cfg) if llm else nullcontext() as client:
            merged = run_merge(candidate_set, client, make_sampling_config(cfg), cfg.merge_mode)
        document = render(StructuredOutput.from_graph(merged.graph, merged.answer)) + "\n"
    except InvalidGraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    if args.out:
        atomic_write_text(Path(args.out), document)
        suffix = ", fell back" if merged.fell_back else ""
        print(f"wrote {args.out} (answer: {merged.answer}, mode: {merged.merge_mode}{suffix})")
    else:
        print(document, end="")
    return EXIT_OK


def cmd_build(args: argparse.Namespace, cfg: RunConfig) -> int:
    items = read_sources(args.sources)
    with make_client(cfg) as client:
        result = build_dataset(
            items,
            client,
            make_sampling_config(cfg),
            merge_mode=cfg.merge_mode,
            split_seed=cfg.split_seed,
        )
    paths = write_dataset(result, args.out)
    report = result.report
    print(f"sources: {report.total_in}")
    print(
        f"retained: {report.retained} "
        f"(train {report.split_sizes['train']}, valid {report.split_sizes['valid']})"
    )
    for reason in sorted(report.discarded_by_reason):
        print(f"discarded[{reason}]: {report.discarded_by_reason[reason]}")
    print(f"wrote {paths['train']}, {paths['valid']}, {paths['report']}")
    if report.total_in and not report.retained:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    items = load_benchmark(args.benchmark, args.path)
    write_items(items, args.out)
    print(f"ingested {len(items)} items from {args.benchmark} -> {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.items and args.benchmark:
        raise ConfigError("items", "give either --items or --benchmark/--path, not both")
    if args.items:
        items = read_items(args.items)
    elif args.benchmark:
        if not args.path:
            raise ConfigError("path", "required with --benchmark")
        items = load_benchmark(args.benchmark, args.path)
    else:
        raise ConfigError("items", "provide --items or --benchmark with --path")
    if not items:
        print("error: no items to evaluate", file=sys.stderr)
        return EXIT_FAILURE

    with make_client(cfg) as client:
        report = evaluate(items, cfg.paradigm, client, make_sampling_config(cfg))
    print(render_table(report), end="")
    if args.out:
        paths = write_report(report, args.out)
        print(f"wrote {paths['text']}, {paths['json']}, {paths['records']}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    path = Path(args.completions)
    texts: list[str] = []
    labels: list[str] = []
    for lineno, row, problem in read_jsonl(path):
        if problem is not None:
            print(f"error: {path}:{lineno}: {problem}", file=sys.stderr)
            return EXIT_FAILURE
        if not isinstance(row, dict):
            row = {}
        text = row.get("text", row.get("completion", row.get("graph_reasoning")))
        label = row.get("label")
        if not isinstance(text, str) or not isinstance(label, str):
            print(f"error: {path}:{lineno}: row needs text and label fields", file=sys.stderr)
            return EXIT_FAILURE
        texts.append(text)
        labels.append(label)

    weights = (cfg.format_weight, cfg.answer_weight)
    scores = score_batch(texts, labels, weights)
    print(f"scored {len(scores)} completions")
    if scores:
        n = len(scores)
        print(f"mean format reward: {sum(s.format_reward for s in scores) / n:.4f}")
        print(f"mean answer reward: {sum(s.answer_reward for s in scores) / n:.4f}")
        print(f"mean combined reward: {sum(s.combined for s in scores) / n:.4f}")
    if args.out:
        rows = [
            {"index": i, **score.to_dict()} for i, score in enumerate(scores)
        ]
        atomic_write_text(Path(args.out), jsonl_dumps(rows))
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    settings = common.add_argument_group("settings")
    settings.add_argument("--config", help="config file of key = value lines")
    for setting in fields(RunConfig):
        settings.add_argument(
            "--" + setting.name.replace("_", "-"), dest=setting.name, help=setting.metadata["help"]
        )
    settings.add_argument("--verbose", action="store_true", help="log at INFO level")

    parser = argparse.ArgumentParser(
        prog="graphreason",
        description="Build and evaluate graph-structured reasoning datasets.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], allow_abbrev=False, **kw)

    p = add_parser("validate", help="check template documents")
    p.add_argument("paths", nargs="+", help="template text or .jsonl record files")
    p.add_argument("--lenient", action="store_true", help="parse leniently")
    p.set_defaults(handler=cmd_validate)

    p = add_parser("viz", help="export DOT graphs")
    p.add_argument("path", help="template text or .jsonl record file")
    p.add_argument("--out-dir", dest="out_dir", default=".", help="directory for .dot files")
    p.add_argument("--lenient", action="store_true", help="parse leniently")
    p.set_defaults(handler=cmd_viz)

    p = add_parser("sample", help="sample k reasoning trajectories")
    p.add_argument("question", help="question to reason about")
    p.add_argument("--out", help="write samples JSON here instead of stdout")
    p.set_defaults(handler=cmd_sample)

    p = add_parser("merge", help="merge sampled candidates")
    p.add_argument("input", help="JSON file with question and samples")
    p.add_argument("--out", help="write the merged template here instead of stdout")
    p.set_defaults(handler=cmd_merge)

    p = add_parser("build", help="build a training dataset")
    p.add_argument("--sources", required=True, help="JSONL of question/label records")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_build)

    p = add_parser("ingest", help="normalize a benchmark file")
    p.add_argument("--benchmark", required=True, choices=BENCHMARKS)
    p.add_argument("--path", required=True, help="upstream benchmark file")
    p.add_argument("--out", required=True, help="normalized items JSONL")
    p.set_defaults(handler=cmd_ingest)

    p = add_parser("eval", help="evaluate a paradigm on items")
    p.add_argument("--items", help="normalized items JSONL (from ingest)")
    p.add_argument("--benchmark", choices=BENCHMARKS, help="load upstream file directly")
    p.add_argument("--path", help="upstream benchmark file (with --benchmark)")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(handler=cmd_eval)

    p = add_parser("score", help="reward-score completions")
    p.add_argument("--completions", required=True, help="JSONL of text/label rows")
    p.add_argument("--out", help="write per-completion rewards JSONL here")
    p.set_defaults(handler=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        return args.handler(args, cfg)
    except ConfigError as err:
        print(f"config error: {err.field}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ClientError, MergeError, BenchError, PipelineError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
