"""Prompt templates for trajectory sampling, merging and evaluation.

Each template is a (system, user) pair; the user half is a format
string filled at call time. The structured-output instructions repeat
the exact wire grammar the codec enforces so that compliant replies
strict-parse.
"""
from __future__ import annotations

from dataclasses import dataclass

STRUCTURE_RULES = """Reply with exactly this structure and nothing else:

<reasoning>
<step> parent step → child step </step>
<step> parent step → child step </step>
</reasoning>
<answer> final answer </answer>

Rules:
- each <step> line links one parent step to one child step with a single '→'
- a step may appear on several lines; together the links must form a directed acyclic graph that ends at a single concluding step
- step text must be a short self-contained statement without '<', '>' or arrow characters
- the <answer> block holds only the final answer (for multiple choice, the option letter)"""


@dataclass(frozen=True)
class PromptTemplate:
    """A (system, user-template) pair."""

    system: str
    user_template: str

    def fill(self, **values: str) -> tuple[str, str]:
        return self.system, self.user_template.format(**values)


TRAJECTORY_PROMPT = PromptTemplate(
    system=(
        "You are a careful reasoner. You decompose a question into atomic "
        "reasoning steps, connect the steps by logical dependency, and only "
        "then commit to an answer."
    ),
    user_template=(
        "Question:\n{question}\n\n"
        "Work the question out as a dependency graph of short reasoning steps.\n\n"
        + STRUCTURE_RULES
    ),
)

INTEGRATION_PROMPT = PromptTemplate(
    system=(
        "You consolidate several candidate reasoning graphs for the same "
        "question into one coherent graph that best supports the most "
        "consistent answer."
    ),
    user_template=(
        "Question:\n{question}\n\n"
        "Candidate reasoning graphs:\n\n{candidates}\n\n"
        "Merge the candidates into a single reasoning graph. Keep only steps "
        "that support the best-justified answer, drop contradicted or "
        "redundant steps, and keep every dependency that survives.\n\n"
        + STRUCTURE_RULES
    ),
)

DIRECT_PROMPT = PromptTemplate(
    system="You answer questions accurately and concisely.",
    user_template=(
        "Question:\n{question}\n\n"
        "Reply with the answer only. For multiple choice, reply with the "
        "option letter alone."
    ),
)

LINEAR_PROMPT = PromptTemplate(
    system="You solve problems by reasoning step by step before answering.",
    user_template=(
        "Question:\n{question}\n\n"
        "Think through the question step by step. Finish with a final line of "
        "the form: The answer is X"
    ),
)

SELF_GRAPH_PROMPT = PromptTemplate(
    system=(
        "You are a careful reasoner. You decompose a question into atomic "
        "reasoning steps, connect the steps by logical dependency, and only "
        "then commit to an answer."
    ),
    user_template=(
        "Question:\n{question}\n\n"
        "Reason about the question as a dependency graph of short steps, then "
        "answer.\n\n" + STRUCTURE_RULES
    ),
)

REPAIR_SUFFIX = (
    "\n\nYour previous reply was rejected ({kind}: {detail}). "
    "Reply again with ONLY the <reasoning> block followed by the <answer> "
    "block, exactly in the required structure."
)


def format_candidates(rendered: list[str]) -> str:
    blocks = []
    for i, text in enumerate(rendered, start=1):
        blocks.append(f"Candidate {i}:\n{text}")
    return "\n\n".join(blocks)
