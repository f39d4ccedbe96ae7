"""Toolkit for building and evaluating graph-structured reasoning data.

The package turns question/answer pairs into training instances whose
reasoning is a directed acyclic graph of short steps, serialized in a
tagged text template, and evaluates QA benchmarks under direct, linear
chain, and self-generated graph prompting paradigms.

Importing the package loads no submodule: each exported name loads the
submodule that defines it on first use (PEP 562), so a consumer of the
reward functions never loads the client, its sender threads or its store.
"""
from __future__ import annotations

from importlib import import_module

# Each exported name, under the submodule that defines it.
_EXPORTS = {
    "answers": ("answers_match", "extract_option_letter", "normalize_freeform", "parse_number"),
    "bench": (
        "ADAPTERS", "BENCHMARKS", "PARADIGMS", "BenchmarkItem", "BenchmarkScore", "EvalReport",
        "ItemRecord", "SchemaError", "evaluate", "load_benchmark", "render_table", "write_report",
    ),
    "client": (
        "AuthError", "ChatClient", "ClientError", "CompletionRequest", "HttpBackend",
        "MockBackend", "ProtocolError", "ResponseCache", "SamplingConfig", "TransientError",
        "TransportExhaustedError",
    ),
    "codec": (
        "LENIENT", "STRICT", "StructuredOutput", "TemplateParseError", "final_answer",
        "find_answer_tag", "parse", "render",
    ),
    "graph": ("InvalidGraphError", "ReasoningGraph", "export_dot", "normalize_text"),
    "merge": (
        "MERGE_MODES", "CandidateSet", "DroppedEdge", "LLMMergeFailedError", "MergedResult",
        "MergeError", "merge_deterministic", "merge_steps",
    ),
    "pipeline": (
        "BuildReport", "BuildResult", "DiscardRecord", "PipelineError", "Provenance", "SourceQA",
        "TrainingInstance", "build_dataset", "build_instance", "read_sources", "split_instances",
        "write_dataset",
    ),
    "rewards": ("RewardScore", "reward_answer", "reward_format", "score_batch", "score_completion"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
