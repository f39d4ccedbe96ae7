"""Command line front-end.

Subcommands cover the whole workflow: validate and visualize template
documents, sample trajectories, merge candidates, build datasets,
ingest benchmarks, evaluate paradigms, and score completions.

Each setting is declared once, as a ``RunConfig`` field, which gives
its flag, environment variable (GRAPHREASON_<NAME>), config key, help
and type; its check is a row of the table in ``RunConfig.__post_init__``.
Settings resolve with precedence: command line flag, then environment
variable, then config file (key = value lines), then built-in
defaults. The API credential is never a flag or a config key;
it is read from the environment variable named by ``--credential-env``
(default GRAPHREASON_API_KEY). Input files are read through ``_io``,
and each command applies its own policy to a problem it reports.

``main`` is the one output boundary. It sets stdout and stderr to write
a character they cannot encode as its backslash escape (a lone
surrogate, or any non-ASCII text on an ASCII stream), and it prints the
one ``error:`` or ``config error:`` line of a command that fails.

Exit codes: 0 success, 1 item-level failure (bad records, an input
file that cannot be read or decoded, failed merge, nothing retained, no
eval reply), 2 configuration error, 130 interrupted (Ctrl-C), after the
one line ``interrupted`` on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, TextIO, get_args, get_type_hints

from ._io import (
    Fields,
    SchemaError,
    atomic_write,
    check_non_empty,
    jsonl_lines,
    read_json,
    read_jsonl,
    read_records,
    read_text,
)
from .bench import (
    BENCHMARKS,
    PARADIGM_SELF_GRAPH,
    PARADIGMS,
    check_paradigm,
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
    all_failed_detail,
    check_at_least_one,
    check_temperature,
)
from .codec import LENIENT, STRICT, StructuredOutput, TemplateParseError, parse, render
from .graph import WARNING_MULTIPLE_SINKS, InvalidGraphError, export_dot, sinks
from .merge import (
    MERGE_MODES,
    MODE_DETERMINISTIC,
    CandidateSet,
    MergeError,
    Pending,
    advance,
    check_merge_mode,
    merge_steps,
)
from .pipeline import (
    DEFAULT_SPLIT_SEED,
    PipelineError,
    build_dataset,
    parse_candidates,
    read_sources,
    trajectory_requests,
    write_dataset,
)
from .rewards import check_weight, score_batch

log = logging.getLogger(__name__)

ENV_PREFIX = "GRAPHREASON_"
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

DEFAULT_MODEL = "teacher"


class ConfigError(Exception):
    """A setting is missing or malformed; ``field`` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class CommandError(Exception):
    """A command failed as a whole; ``main`` prints its message as the ``error:`` line."""


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
        DEFAULT_CONCURRENCY, "max in-flight requests, one client sender thread each"
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
        # Each range rule lives with the code that relies on it; this names the setting.
        checks = [(name, check_at_least_one)
                  for name in ("concurrency", "retry_cap", "k", "max_new_tokens")]
        checks += [(name, check_non_empty)
                   for name in ("endpoint", "credential_env", "model", "mock", "cache_dir")]
        checks += [("merge_mode", check_merge_mode), ("paradigm", check_paradigm),
                   ("temperature", check_temperature),
                   ("format_weight", check_weight), ("answer_weight", check_weight)]
        for name, check in checks:
            value = getattr(self, name)
            if value is None:  # an optional setting left unset
                continue
            try:
                check(name, value)
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
        # requests keeps 10 connections per host; keep one per request in flight.
        import requests

        session = requests.Session()
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=cfg.concurrency)
        session.mount("http://", adapter)
        session.mount("https://", adapter)
        backend = HttpBackend(cfg.endpoint, credential_env=cfg.credential_env, session=session)
    try:
        cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    except ValueError as err:
        raise ConfigError("cache_dir", str(err)) from None
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


# The keys a row's template text may sit under, in the order they are looked for.
TEMPLATE_KEYS = ("text", "completion", "graph_reasoning")


def template_text(row: Fields) -> str:
    """A row's template: the first of TEMPLATE_KEYS it holds, which must be a string."""
    return row.text(next((key for key in TEMPLATE_KEYS if key in row.raw), TEMPLATE_KEYS[0]))


def parse_template_records(paths: list[str], lenient: bool, failures_to: TextIO, on_parsed) -> int:
    """Hand each parsed template record of ``paths`` to ``on_parsed(where, output)``, in order.

    A .jsonl file holds one record per line, its ``template_text``; any
    other file is one record, the whole file body. A record that cannot
    be read or parsed, or a path that cannot be read at all, prints one
    line to ``failures_to`` instead and makes the exit code 1.
    """
    mode = LENIENT if lenient else STRICT
    failures = 0
    for path in map(Path, paths):
        try:
            if path.suffix == ".jsonl":
                records = list(read_jsonl(path))
            else:
                records = [(None, *read_text(path))]
        except OSError as err:
            print(f"{path}: cannot be read ({err.strerror})", file=failures_to)
            failures += 1
            continue
        for lineno, value, problem in records:
            where = f"{path}" if lineno is None else f"{path}:{lineno}"
            try:
                if problem is not None:
                    raise SchemaError(f"{where}: {problem}")
                text = value if lineno is None else template_text(Fields(value, where))
                output = parse(text, mode)
            except SchemaError as err:
                print(err, file=failures_to)
            except TemplateParseError as err:
                print(f"{where}: parse error: {err.kind} ({err.detail})", file=failures_to)
            else:
                on_parsed(where, output)
                continue
            failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: RunConfig) -> int:
    def report(where: str, output: StructuredOutput) -> None:
        graph = output.graph
        # A parsed graph is a DAG by construction: it carries no error, and
        # the one shape left to warn of is more than one conclusion.
        line = f"{where}: {graph.node_count} nodes, {graph.edge_count} edges, 0 errors"
        count = len(sinks(graph))
        if count > 1:
            line += f", 1 warnings\n  warning: {WARNING_MULTIPLE_SINKS}: {count} sinks present"
        print(line)

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
        dot = export_dot(output.graph, answer=output.answer)
        atomic_write(out_path, [dot])
        print(out_path)

    return parse_template_records([args.path], args.lenient, sys.stderr, write_dot)


def cmd_sample(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        check_non_empty("question", args.question)
    except ValueError as err:
        raise CommandError(str(err)) from None
    config = make_sampling_config(cfg)
    with make_client(cfg) as client:
        [(_, replies)] = client.replies(
            [args.question], lambda question: trajectory_requests(question, config)
        )
    failure = all_failed_detail(replies)
    if failure is not None:
        raise CommandError(failure)
    errors = {str(i): str(r) for i, r in enumerate(replies) if isinstance(r, ClientError)}
    payload = {
        "question": args.question,
        "samples": [None if isinstance(r, ClientError) else r for r in replies],
        "errors": errors,
    }
    body = json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    if args.out:
        atomic_write(Path(args.out), [body])
        print(f"wrote {args.out} ({len(replies) - len(errors)}/{config.k} samples)")
    else:
        print(body, end="")
    return EXIT_OK


def cmd_merge(args: argparse.Namespace, cfg: RunConfig) -> int:
    record = Fields(read_json(args.input), args.input)
    question = record.text("question")
    samples = record.list("samples")
    texts = [None if samples.raw[i] is None else samples.text(i) for i in samples.raw]

    candidates, lenient_only = parse_candidates(texts)
    if lenient_only:
        log.warning(
            "samples %s accepted only under lenient parsing", ", ".join(map(str, lenient_only))
        )
    if not candidates:
        raise CommandError("no sample parsed as a reasoning template")
    candidate_set = record.make(CandidateSet, candidates, question=question)

    # A deterministic merge yields no request, so it builds no client.
    merged = advance(merge_steps(candidate_set, make_sampling_config(cfg), cfg.merge_mode))
    if isinstance(merged, Pending):
        with make_client(cfg) as client:
            while isinstance(merged, Pending):
                [(_, [reply])] = client.replies([merged.request], lambda request: [request])
                merged = merged.resume(reply)
    document = render(merged) + "\n"
    if args.out:
        atomic_write(Path(args.out), [document])
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
    print(f"lenient-only samples: {result.lenient_only}")
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
    items = read_items(args.items)
    if not items:
        raise CommandError("no items to evaluate")

    with make_client(cfg) as client:
        report = evaluate(items, cfg.paradigm, client, make_sampling_config(cfg))
    failed = sum(record.error is not None for record in report.records)
    print(render_table(report), end="")
    print(f"transport failures: {failed}")
    if args.out:
        paths = write_report(report, args.out)
        print(f"wrote {paths['text']}, {paths['json']}, {paths['records']}")
    # As a build that retains nothing: no reply came back to score.
    return EXIT_FAILURE if failed == len(items) else EXIT_OK


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    texts: list[str] = []
    labels: list[str] = []
    for _, record in read_records(args.completions):
        texts.append(template_text(record))
        labels.append(record.label("label"))

    weights = (cfg.format_weight, cfg.answer_weight)
    scores = score_batch(texts, labels, weights)
    print(f"scored {len(scores)} completions")
    if scores:
        n = len(scores)
        print(f"mean format reward: {sum(s.format_reward for s in scores) / n:.4f}")
        print(f"mean answer reward: {sum(s.answer_reward for s in scores) / n:.4f}")
        print(f"mean combined reward: {sum(s.combined for s in scores) / n:.4f}")
    if args.out:
        rows = ({"index": i, **score.to_dict()} for i, score in enumerate(scores))
        atomic_write(Path(args.out), jsonl_lines(rows))
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
    p.add_argument("--items", required=True, help="normalized items JSONL (from ingest)")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(handler=cmd_eval)

    p = add_parser("score", help="reward-score completions")
    p.add_argument("--completions", required=True, help="JSONL of text/label rows")
    p.add_argument("--out", help="write per-completion rewards JSONL here")
    p.set_defaults(handler=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Each stream writes what it cannot encode as its backslash escape, so a
    # surrogate from a file name or a JSON escape never ends a command.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
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
    except (
        CommandError, ClientError, MergeError, InvalidGraphError, SchemaError, PipelineError, OSError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        # The windows' finally blocks have already stored what came back.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
