from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphreason import codec
from graphreason.answers import answers_match
from graphreason.rewards import (
    DEFAULT_WEIGHTS,
    RewardScore,
    reward_answer,
    reward_format,
    score_batch,
    score_completion,
)

FIXTURES = Path(__file__).parent / "fixtures"

GOOD_DOC = (
    "<reasoning>\n"
    "<step> gather facts → weigh options </step>\n"
    "<step> weigh options → pick option b </step>\n"
    "</reasoning>\n"
    "<answer> B </answer>"
)


class TestFormatReward:
    def test_strict_document_scores_one(self):
        assert reward_format(GOOD_DOC) == 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "plain prose answer: B",
            "Sure!\n" + GOOD_DOC,
            GOOD_DOC + "\nP.S. hope that helps",
            GOOD_DOC.replace("<answer> B </answer>", ""),
            "<reasoning>\n<step> a → b </step>\n<step> b → a </step>\n"
            "</reasoning>\n<answer> B </answer>",
        ],
    )
    def test_broken_documents_score_zero(self, text):
        assert reward_format(text) == 0.0


class TestAnswerReward:
    def test_tagged_answer_matches(self):
        assert reward_answer(GOOD_DOC, "b") == 1.0

    def test_tagged_answer_mismatch(self):
        assert reward_answer(GOOD_DOC, "C") == 0.0

    def test_last_tag_wins(self):
        text = "<answer> A </answer> wait no <answer> C </answer>"
        assert reward_answer(text, "C") == 1.0
        assert reward_answer(text, "A") == 0.0

    def test_cue_fallback_without_tag(self):
        assert reward_answer("thinking...\nThe answer is 42", "42") == 1.0

    def test_unextractable_scores_zero(self):
        assert reward_answer("", "42") == 0.0

    def test_empty_tag_is_the_answer(self):
        # A present but empty tag wins over the cue in the prose before it.
        assert reward_answer("the answer is B <answer> </answer>", "B") == 0.0

    def test_cue_after_text_that_lowercases_longer(self):
        # "İ".lower() is two code points, which once shifted the cut.
        assert reward_answer("İİ in İstanbul the answer is 42", "42") == 1.0

    def test_long_s_in_the_opening_tag_is_no_answer_tag(self):
        assert reward_answer("<anſwer> 7 </answer>", "7") == 0.0

    def test_long_s_in_the_closing_tag_is_no_answer_tag(self):
        assert reward_answer("<anſwer> 7 </anſwer>", "7") == 0.0
        assert reward_answer("<answer> 7 </anſwer>", "7") == 0.0

    def test_tagless_text_is_searched_for_a_tag_once(self, monkeypatch):
        real = codec._ANSWER_TAG_RE
        searched = []

        class Counting:
            def findall(self, text):
                searched.append(text)
                return real.findall(text)

        monkeypatch.setattr(codec, "_ANSWER_TAG_RE", Counting())
        assert reward_answer("thinking...\nThe answer is 42", "42") == 1.0
        assert len(searched) == 1

    def test_agrees_with_matcher_on_frozen_pairs(self):
        pairs = json.loads((FIXTURES / "answer_pairs.json").read_text())["pairs"]
        for pair in pairs:
            candidate, label = pair["candidate"], pair["label"]
            if "<" in candidate or ">" in candidate:
                continue
            text = f"<answer> {candidate} </answer>" if candidate.strip() else ""
            expected = 1.0 if answers_match(candidate, label) else 0.0
            assert reward_answer(text, label) == expected, pair


class TestCombined:
    def test_default_weights_sum(self):
        score = score_completion(GOOD_DOC, "B")
        assert score == RewardScore(1.0, 1.0, 2.0)

    def test_format_only(self):
        score = score_completion(GOOD_DOC, "C")
        assert score == RewardScore(1.0, 0.0, 1.0)

    def test_answer_only(self):
        score = score_completion("The answer is B", "B")
        assert score == RewardScore(0.0, 1.0, 1.0)

    def test_custom_weights(self):
        score = score_completion(GOOD_DOC, "B", weights=(0.5, 2.0))
        assert score.combined == 0.5 * 1.0 + 2.0 * 1.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            score_completion(GOOD_DOC, "B", weights=(-1.0, 1.0))

    @pytest.mark.parametrize("weights, name", [
        ((float("nan"), 1.0), "format_weight"), ((1.0, float("inf")), "answer_weight"),
    ])
    def test_non_finite_weights_rejected(self, weights, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            score_batch([GOOD_DOC], ["B"], weights)


class TestBatch:
    def test_aligned_scoring(self):
        scores = score_batch([GOOD_DOC, "The answer is 7"], ["B", "9"])
        assert [s.combined for s in scores] == [2.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 completions vs 2 labels"):
            score_batch([GOOD_DOC], ["B", "C"])

    def test_empty_batch(self):
        assert score_batch([], []) == []

    @given(st.floats(0, 5), st.floats(0, 5))
    def test_combined_bounded_by_weight_sum(self, wf, wa):
        for text, label in [(GOOD_DOC, "B"), (GOOD_DOC, "C"), ("prose", "B")]:
            score = score_completion(text, label, weights=(wf, wa))
            assert 0.0 <= score.combined <= wf + wa


def test_default_weights_are_unit():
    assert DEFAULT_WEIGHTS == (1.0, 1.0)
