"""Reward scoring for structured-reasoning completions.

Two independent signals: a format reward for emitting a document that
parses under the strict grammar, and an answer reward for getting the
final answer right. The combined score is a non-negative weighted sum,
default weights (1, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .answers import answers_match
from .codec import STRICT, TemplateParseError, extract_untagged_answer, find_answer_tag, parse

DEFAULT_WEIGHTS = (1.0, 1.0)


@dataclass(frozen=True)
class RewardScore:
    """Per-completion reward breakdown."""

    format_reward: float
    answer_reward: float
    combined: float

    def to_dict(self) -> dict:
        return {
            "format_reward": self.format_reward,
            "answer_reward": self.answer_reward,
            "combined": self.combined,
        }


def reward_format(text: str) -> float:
    """1.0 when the completion parses under the strict grammar, else 0.0."""
    try:
        parse(text, STRICT)
    except TemplateParseError:
        return 0.0
    return 1.0


def reward_answer(text: str, label: str) -> float:
    """1.0 when the extracted final answer matches the label, else 0.0.

    Extraction is independent of format: the last answer tag wins, and
    a tagless completion falls back to cue-based extraction so a correct
    but unstructured answer still earns the answer component. A present
    but empty tag is the answer, and matches no label.
    """
    candidate = find_answer_tag(text)
    if candidate is None:
        candidate = extract_untagged_answer(text)
    if candidate is None:
        return 0.0
    return 1.0 if answers_match(candidate, label) else 0.0


def _check_weights(weights: tuple[float, float]) -> tuple[float, float]:
    format_weight, answer_weight = weights
    if format_weight < 0 or answer_weight < 0:
        raise ValueError(f"weights must be non-negative, got {weights}")
    return format_weight, answer_weight


def score_completion(
    text: str, label: str, weights: tuple[float, float] = DEFAULT_WEIGHTS
) -> RewardScore:
    """Score one completion against its reference label."""
    format_weight, answer_weight = _check_weights(weights)
    format_reward = reward_format(text)
    answer_reward = reward_answer(text, label)
    return RewardScore(
        format_reward=format_reward,
        answer_reward=answer_reward,
        combined=format_weight * format_reward + answer_weight * answer_reward,
    )


def score_batch(
    texts: Sequence[str],
    labels: Sequence[str],
    weights: tuple[float, float] = DEFAULT_WEIGHTS,
) -> list[RewardScore]:
    """Score aligned completions and labels; lengths must agree."""
    if len(texts) != len(labels):
        raise ValueError(f"{len(texts)} completions vs {len(labels)} labels")
    _check_weights(weights)
    return [score_completion(text, label, weights) for text, label in zip(texts, labels)]
