"""The DAG invariant is checked once, by the graph's constructor.

``parse`` hands its steps to that one check and reports a failure as
``cycle-in-steps``, with the detail the constructor gives: the first
self-loop in edge order, else the first strongly connected component.
In either mode the offset is just after the opening ``<reasoning>``.
The constructor's acceptance set is checked against networkx in
``test_graph_oracles.py``.
"""
from __future__ import annotations

import pytest

from graphreason.codec import CYCLE_IN_STEPS, LENIENT, STRICT, TemplateParseError, parse


@pytest.mark.parametrize(
    "steps, detail, mode",
    [
        (["a → b", "b → a"], "cycle through a -> b", STRICT),
        (["x → y", "A. → a"], "self-loop on 'a'", STRICT),
        (["p → q", "q → p"], "cycle through p -> q", LENIENT),
    ],
)
def test_failed_acyclicity_test_keeps_the_cycle_diagnosis(steps, detail, mode):
    # The lenient document is wrapped in prose and opens with a mis-cased tag.
    head = "<reasoning>" if mode == STRICT else "Sure, here it is:\n<REASONING>"
    tail = "" if mode == STRICT else "\nHope that helps!"
    body = "\n".join(f"<step> {step} </step>" for step in steps)
    with pytest.raises(TemplateParseError) as caught:
        parse(f"{head}\n{body}\n</reasoning>\n<answer> 4 </answer>{tail}", mode)
    assert (caught.value.kind, caught.value.location, caught.value.detail) == (
        CYCLE_IN_STEPS,
        len(head),
        detail,
    )
